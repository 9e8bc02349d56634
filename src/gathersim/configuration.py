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
from heapq import heapify, heappop, heappush
from dataclasses import dataclass
from itertools import chain, combinations, compress, islice, starmap
from operator import sub
from typing import Iterable, Sequence

from . import geometry, symmetry
from .errors import AsymmetryViolated, NotLinear, OutOfScale
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
# Robots above which ``Configuration._sum_walks`` bounds the locations with
# the cell tree; at or below it one exact pass over every robot pair serves
# every location.
_TREE_FROM = 64
# Distinct points up to which ``_farthest_pairs`` measures every pair of
# them, without the hull.
_ALL_PAIRS_UP_TO = 28
# Hull candidates above which ``_farthest_pairs`` measures only
# near-opposite pairs.
_OPPOSITE_FROM = 36
# Diameters outside this range, unless within the coordinates' resolution,
# are refused by ``classify``.  Over 243 inputs of every class, 2 to 160
# robots, each scaled by exact powers of two, every class held from
# diameters of 2.2e-102 to 1.4e108 and some changed or raised beyond, where
# the Weber certificate's m/d^3 terms then overflowed or underflowed;
# ``symmetry._polish_disc`` has since become scale-free.  From about 1e154
# the squared lengths of the linearity test overflow.
_MIN_DIAMETER = 1e-90
_MAX_DIAMETER = 1e90


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


class Configuration:
    """Indexed multiset of robot positions with tolerance-aware multiplicities.

    The points are stored as ``Point``s of floats, whatever pairs of
    numbers they came as, and must be finite.  Every derived attribute (the
    distinct points, the diameter, the locations, linearity, the pair sums,
    the class, ...) is a ``geometry._cached`` attribute, computed on first
    read and kept.  Every robot's local frame makes a fresh configuration,
    and most of those are decided after the locations and the linearity
    test, so this fixed cost is a large share of a run (see the README).
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
        # each robot's decision, set once complete by ``gathering.decide``
        self._decisions: list | None = None

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
    def _farthest(self) -> tuple[float, int, int]:
        """The diameter, from ``_farthest_pairs``, and the robots i <= j of
        ``farthest_pair``, from ``_first_pair`` over the pairs at it."""
        stacks, pts = self._distinct
        diameter, pairs = _farthest_pairs(pts)
        return (diameter, *_first_pair(pairs, stacks))

    @_cached
    def _lower_sums(self) -> list[tuple[float, float, float]]:
        """Lower bounds on each location's ``_sums_at``, in location order.

        Where ``_sum_walks`` is None, up to ``_TREE_FROM`` robots, it is
        ``_pair_sums`` itself, every bound exact.  Above, every bound comes
        from the distance-sum bounds of ``_sum_walks``; they spare exact
        work only when they prune most of the robots, and at small n a walk
        measures most of them exactly anyway.

        Above ``_TREE_FROM`` the pull bound follows from the sum bound by
        convexity.  Write f(x) for the sum of |x - p| over the robots p, P_c
        for the sum of the unit vectors from c toward the robots beyond the
        merge slack of c, and mu_c for the multiplicity of c's location.
        The robots within the merge slack of c belong to its location (the
        merge links every pair that close), and f less their terms is
        convex and differentiable at c with gradient -P_c.  So for any point
        y != c, f(y) - f(c) >= -|P_c| |y - c| plus, over the robots q within
        the slack, the sum of |y - q| - |c - q|: |y - c| for a robot on c,
        at least -|y - c| for any other.  The location's lowest robot sits
        on c and at most mu_c - 1 others are within the slack, so

            |P_c| - mu_c >= (f(c) - f(y)) / |c - y| - delta_c,

        with delta_c = 2 * (mu_c - 1).  y is the cell tree's float centroid,
        where f is measured once and rounded up (``_sum_above``), and the
        walks bound f(c) from below (``_convexity_pull``).  The computed
        quotient, lowered by a relative 2e-15 for the rounding of the
        subtraction, of ``hypot`` and of the division, is below the true
        one, and (n + 8) n 1e-15 more covers the gap between |P_c| and its
        computed value (n unit vectors, each within 4u of its own, added to
        partial sums of size at most n) and the addition of mu_c - delta_c.
        A center at y itself gets no pull bound.

        Each walk refines only until its sum bound gives a pull bound past
        the threshold at which ``detect_quasi_regular`` skips the center
        (``symmetry._skip_terms``), with (n + 8) n 2e-15 to spare for the
        rounding between the two, so a walk that stops there lets the
        center be skipped; the class-A election resumes walks from where
        they stopped.  On generic input most walks stop within a few cells,
        and on a regular polygon of 80 to 640 robots every walk stops after
        opening the root.

        r_min is one floor for every location, ``_r_floor``.

        The crossover, timed as whole ``classify`` calls on fresh
        configurations forced to each side, pass against tree, in us, best
        of 14 on a shared 2-core x86-64 host, under three CPython versions:

        ==========  ====  ===========  ===========  ===========
        input          n       3.11.7       3.12.1       3.13.0
        ==========  ====  ===========  ===========  ===========
        uniform A     20    221 / 264    256 / 295    252 / 282
        uniform A     40    446 / 493    547 / 569    544 / 543
        uniform A     64    809 / 695   1007 / 822   1013 / 786
        uniform A     80   1134 / 948  1427 / 1113  1447 / 1063
        uniform A    128  2381 / 1403  2993 / 1651  3100 / 1539
        uniform A    160  3458 / 1868  4373 / 2214  4516 / 2089
        ellipse A     20    226 / 307    261 / 346    255 / 329
        ellipse A     40    528 / 687    633 / 785    627 / 747
        ellipse A     64   940 / 1037  1147 / 1194  1150 / 1138
        ellipse A     80  1277 / 1411  1571 / 1620  1593 / 1542
        ellipse A    128  2539 / 2393  3189 / 2773  3270 / 2585
        ellipse A    160  3746 / 3226  4648 / 3706  4772 / 3546
        polygon QR    20    262 / 279    308 / 324    301 / 312
        polygon QR    40    477 / 414    571 / 479    564 / 453
        polygon QR    64    872 / 614   1073 / 717   1075 / 676
        polygon QR    80   1223 / 753   1504 / 885   1511 / 835
        polygon QR   128  2560 / 1213  3167 / 1424  3243 / 1307
        polygon QR   160  4202 / 1946  5258 / 2313  5327 / 2178
        ==========  ====  ===========  ===========  ===========

        "uniform A" is uniform input in a square, "ellipse A" random angles
        on a 1 x 0.9 ellipse, "polygon QR" a regular polygon.  The pass wins
        on all three at 20 robots and the tree on all three from 128;
        between, the polygon favours the tree from 40 and the uniform input
        from 64, while the ellipse favours the pass up to 80 under 3.11 and
        3.12, so neither side loses over its whole range.
        """
        walks = self._sum_walks
        if walks is None:
            return self._pair_sums
        n = self.n
        above = _sum_above(self.points, walks.centroid)
        r_floor = self._r_floor
        slack_at, spread, rounding = symmetry._skip_terms(self)
        excess = spread * slack_at(r_floor) + rounding + (n + 8) * n * 2e-15
        out = []
        for k, (loc, gap) in enumerate(zip(self.locations, walks.gaps)):
            if gap == 0.0:
                out.append((-math.inf, r_floor, walks.refine(k, -math.inf)))
                continue
            base = 2 - loc.multiplicity
            total = walks.refine(k, above + gap * (excess + loc.multiplicity - base))
            out.append((_convexity_pull(total, above, gap, base, n), r_floor, total))
        return out

    @_cached
    def _sum_walks(self) -> geometry._CellBounds | None:
        """The distance-sum bounds at every location, from one cell tree
        over the robots, kept so that the class-A election can refine them
        further; None at or below ``_TREE_FROM`` robots, where the exact
        ``_pair_sums`` serve instead.  The one reader of the crossover:
        ``_lower_sums``, ``_sum_at`` and the election branch on its None."""
        if self.n <= _TREE_FROM:
            return None
        return geometry._CellBounds(self.points, [loc.location for loc in self.locations], _LEAF_SIZE)

    @_cached
    def _r_floor(self) -> float:
        """A lower bound on every location's exact r_min, the smallest
        computed ``hypot`` from its point to another distinct point beyond
        the merge slack: the least of such distances below the knee
        ``_COORD_DRIFT`` * diameter / ``eps_angle``, from which
        ``symmetry._slack_by_r_min`` is flat, and the knee itself.  A
        distance is never below either coordinate difference, so a sweep
        over the distinct points in x order that measures only the pairs
        closer than the knee in x finds every distance below it.
        """
        slack = self.merge_slack
        knee = symmetry._COORD_DRIFT * self.diameter / self.tol.eps_angle if self.tol.eps_angle else math.inf
        floor = knee
        pts = self._distinct[1]
        hypot = math.hypot
        for k, (px, py) in enumerate(pts):
            for j in range(k - 1, -1, -1):
                qx, qy = pts[j]
                if px - qx >= knee:
                    break
                d = hypot(px - qx, py - qy)
                if slack < d < floor:
                    floor = d
        return floor

    def _sums_at(self, k: int) -> tuple[float, float, float]:
        """The exact (pull, r_min, sum) at the k-th location, for the
        quasi-regular center test: its ``_pair_sums`` entry where
        ``_sum_walks`` is None, else its ``symmetry.Rays`` ``_sums``, an
        O(n) pass over its row, made once per location, which ``_sum_at``
        reads too.  Both give the same doubles."""
        if self._sum_walks is None:
            return self._pair_sums[k]
        return symmetry.Rays.of(self, self.locations[k].location)._sums

    def _sum_at(self, k: int) -> float:
        """The exact sum of ``_sums_at`` at the k-th location, the same
        double, for the class-A election: its ``_pair_sums`` entry where
        ``_sum_walks`` is None; above, from the location's ``Rays`` once
        its ``_sums`` are taken, else one pass of ``hypot`` over the robots
        that keeps no row and divides nothing: 16 us against 47 us for a
        ``Rays`` and its ``_sums`` at 160 robots under CPython 3.11."""
        if self._sum_walks is None:
            return self._pair_sums[k][2]
        c = self.locations[k].location
        rays = self._rays.get(c)
        if rays is not None and "_sums" in vars(rays):
            return rays._sums[2]
        cx, cy = c
        hypot = math.hypot
        return _plain_sum([hypot(x - cx, y - cy) for x, y in self.points])

    @_cached
    def _pair_sums(self) -> list[tuple[float, float, float]]:
        """(pull, r_min, sum) at each location's lowest robot c, in location
        order, exactly as they are taken from c's ``symmetry.Rays``: pull is
        ``hypot`` of the unit vectors (x - cx, y - cy) / d toward the robots
        whose d = ``hypot(x - cx, y - cy)`` exceeds the merge slack, added in
        index order from 0.0; r_min is their smallest d (0.0 when there is
        none); sum is the ``_plain_sum`` of every robot's d in index order.

        One pass over every robot pair k < l in index order, each measured
        once as ``hypot(x_l - x_k, y_l - y_k)``.  That is the d of the pair
        from either end, as ``hypot`` ignores signs, and x_k - x_l is
        exactly -(x_l - x_k) up to the sign of a zero, so l's unit vector
        toward k is exactly the negated one of k toward l.  A sum that
        starts at 0.0 is never -0.0, so adding a zero of either sign leaves
        it unchanged, as does leaving out c's own d of 0.0.  Robot l meets
        its partners k < l in ascending order, while the outer loop reaches
        them, then the rest in its own row: in index order, so every sum
        rounds as the row-by-row one does.  n (n - 1) / 2 ``hypot`` calls,
        half those of one ``Rays`` per robot.
        """
        points = self.points
        n = len(points)
        slack = self.merge_slack
        hypot = math.hypot
        pulls_x = [0.0] * n
        pulls_y = [0.0] * n
        nearest = [math.inf] * n
        totals = [0.0] * n
        for k, (xk, yk) in enumerate(points):
            pull_x, pull_y, r_min, total = pulls_x[k], pulls_y[k], nearest[k], totals[k]
            for l in range(k + 1, n):
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
        lows = [loc.indices[0] for loc in self.locations]
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
        points at the diameter, from ``_farthest``.  A single location
        gives robot 0 twice.
        """
        _, i, j = self._farthest
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
        line through the cached farthest pair (``geometry.within_line``),
        tested once per distinct point: the robots on one point have its
        offset, up to the sign of a zero."""
        if self.n <= 2:
            return True
        a, b = self.farthest_pair
        return geometry.within_line(self._distinct[1], a, b, self.diameter, self.tol)

    @_cached
    def linear_endpoints(self) -> tuple[Point, Point]:
        """Extreme occupied locations of a linear configuration, in (x, y) order.

        That is the lexicographically first location pair (i, j), i < j, in
        location order, at the largest distance between two locations.  One
        location gives its point twice.

        Locations are ordered by their lowest robot, at its point, so this
        is ``_first_pair`` over the pairs of occupied points at their
        largest distance.  When no two distinct points merged, each location
        is one distinct point and this is ``farthest_pair``; only a merge
        makes a second ``_farthest_pairs`` over the occupied points.
        """
        if not self.is_linear:
            raise NotLinear("endpoints of a non-linear configuration")
        if len(self.locations) == len(self._distinct[1]):
            a, b = self.farthest_pair
        else:
            lows = {loc.location: loc.indices for loc in self.locations}
            i, j = _first_pair(_farthest_pairs(sorted(lows))[1], lows)
            a, b = self.points[i], self.points[j]
        return (a, b) if a <= b else (b, a)

    @_cached
    def cls(self) -> ConfigClass:
        """The configuration's class, from ``classify``: robots are oblivious,
        so it depends on the points alone."""
        return classify(self)

    def find_location(self, p: Point) -> LocationSummary | None:
        """The occupied location coinciding with p within tolerance, if any."""
        for loc in self.locations:
            if dist(loc.location, p) <= self.merge_slack:
                return loc
        return None

    def multiplicity_at(self, p: Point) -> int:
        loc = self.find_location(p)
        return loc.multiplicity if loc else 0

    def __repr__(self) -> str:
        return f"Configuration({list(self.points)!r})"


def _sum_above(points: Sequence[Point], y: Point) -> float:
    """An upper bound on the sum of |y - p| over the points: the computed
    ``_plain_sum`` of their ``hypot`` distances, which errs by at most a
    relative (n + 3)u, times 1 + (n + 4) 1e-15."""
    yx, yy = y
    hypot = math.hypot
    return _plain_sum([hypot(x - yx, py - yy) for x, py in points]) * (1.0 + (len(points) + 4) * 1e-15)


def _convexity_pull(total: float, above: float, gap: float, base: int, n: int) -> float:
    """A lower bound on the computed pull at a location c of n robots, from
    a lower bound ``total`` on its distance sum f(c), an upper bound
    ``above`` on f(y), the computed ``gap`` = |c - y| > 0 and ``base`` =
    mu_c - delta_c (``Configuration._lower_sums`` gives the lemma)."""
    q = (total - above) / gap
    return q - 2e-15 * abs(q) + base - (n + 8) * n * 1e-15


def _first_pair(pairs: Iterable[tuple[Point, Point]], robots: dict[Point, list[int]]) -> tuple[int, int]:
    """The least (i, j), i <= j, over the pairs of points (p, q), with i and
    j the lowest robots at p and q, ``robots[p][0]`` and ``robots[q][0]``;
    (0, 0) when there is no pair, as for a single point."""
    best = None
    for p, q in pairs:
        i, j = robots[p][0], robots[q][0]
        pair = (i, j) if i < j else (j, i)
        if best is None or pair < best:
            best = pair
    return best or (0, 0)


def _farthest_pairs(pts: list[Point]) -> tuple[float, list[tuple[Point, Point]]]:
    """The largest ``hypot(px - x, py - y)`` between two of the distinct
    points pts, given in (x, y) order, and every pair at it.  No pair of a
    single point gives 0.0 and no pairs.

    This is the one place that decides which pairs are measured.  Up to
    ``_ALL_PAIRS_UP_TO`` points every pair of them is measured; above, only
    pairs of their ``_hull_candidates``, which hold every pair at the
    maximum (see there).  Above ``_OPPOSITE_FROM`` candidates each one
    meets only the partners in its window of ``_partner_windows``, which
    hold every pair at the maximum too, in one loop: point k against its
    partners l > k, in ascending order.  Either way the maximum is the same
    double and the pairs at it are the same set; without the hull they come
    in another order and orientation, which no reader depends on: ``hypot``
    ignores signs, and ``_first_pair`` takes a minimum over them.  The
    windows give the pairs in the order of the scan over every pair of
    candidates.

    Every other case measures all its pairs in one scan at C level:
    ``math.dist`` over ``itertools.combinations``, which yields (pts[k],
    pts[l]) for k < l in the loop's order, then ``max`` and, for the pairs
    at the maximum, ``list.index`` into the distances and the pair at that
    position.  ``math.dist(p, q)`` is ``hypot(px - qx, py - qy)`` bit for
    bit: CPython's ``dist`` takes the same two float differences and hands
    their absolute values to the vector norm that ``hypot`` runs on the
    absolute values of its arguments (``test_dist_has_hypot_bits`` checks
    it on signed zeros, subnormals and overflowing differences).  The
    points are finite and distinct, so no distance is NaN or 0.0, and
    ``max`` gives the loop's maximum; the lookup gives the loop's pairs at
    it, in the loop's order.

    The crossovers, timed as whole calls forced to each side on a shared
    2-core x86-64 host, best of 7, in us under CPython 3.11.7 / 3.12.1 /
    3.13.0 (points uniform in a square, at random angles on a circle or a
    1 x 0.9 ellipse, or a regular polygon):

    ==============  ===  ===================  ===================
    every pair        n  scan                 hull, then its pairs
    ==============  ===  ===================  ===================
    square           24  25.0 / 28.4 / 28.8   27.9 / 34.1 / 33.5
    square           28  32.1 / 37.8 / 38.3   32.4 / 39.3 / 38.5
    square           32  45.7 / 53.8 / 54.8   37.0 / 45.3 / 44.9
    circle           48  95.3 / 116 / 119     145 / 177 / 175
    ==============  ===  ===================  ===================

    ==============  ===  ===================  ===================
    candidates        h  scan                 windows
    ==============  ===  ===================  ===================
    polygon          36  58.0 / 70.0 / 72.2   79.5 / 82.2 / 75.2
    polygon          38  72.0 / 92.3 / 93.8   79.9 / 85.7 / 78.0
    circle           56  140 / 168 / 173      169 / 177 / 170
    ellipse          56  122 / 145 / 151      115 / 122 / 111
    ==============  ===  ===================  ===================

    Every pair wins on every shape up to 28 points (the square, whose hull
    keeps about 8 candidates, is the first to flip), and on a circle or an
    ellipse, where every point is a candidate, past 48.  On candidates the
    scan wins on every shape up to 36; the polygon, whose antipodal pairs
    tie, flips to the windows at 38 under 3.12 and 3.13.
    """
    if len(pts) > _ALL_PAIRS_UP_TO:
        pts = _hull_candidates(pts)
    if len(pts) <= _OPPOSITE_FROM:
        ds = [*starmap(math.dist, combinations(pts, 2))]
        best = max(ds, default=0.0)
        pairs: list[tuple[Point, Point]] = []
        k = -1
        for _ in range(ds.count(best)):
            k = ds.index(best, k + 1)
            pairs.append(next(islice(combinations(pts, 2), k, None)))
        return best, pairs
    windows = _partner_windows(pts)
    hypot = math.hypot
    best = 0.0
    pairs = []
    for k, p in enumerate(pts):
        px, py = p
        for q in windows[k]:
            d = hypot(px - q.x, py - q.y)
            if d >= best:
                if d > best:
                    best = d
                    pairs = []
                pairs.append((p, q))
    return best, pairs


def _partner_windows(hull: list[Point]) -> list[list[Point]]:
    """For each candidate k, the candidates l > k, in ascending order, in
    an angular window around its opposite direction; every l > k when the
    window opens the whole turn, as it does for every candidate when their
    spread is too extreme for squared distances.

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
    of half a turn or more, opens the whole turn.  So every pair whose
    computed distance is the maximum lies in its first candidate's window.
    The directions, sorted, are looked up in a ``symmetry._RayIndex``.
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
        return [hull[k + 1:] for k in range(h)]
    low = min(radii)
    thetas = [atan2(y - gy, x - gx) for x, y in hull]
    ends = {xs.index(min(xs)), xs.index(max(xs)), ys.index(min(ys)), ys.index(max(ys))}
    beta = max(hypot(xs[k] - xs[l], ys[k] - ys[l]) for k in ends for l in ends)
    b2 = (beta * (1.0 - 1e-12)) ** 2
    big2 = big * big
    order = sorted(range(h), key=thetas.__getitem__)
    index = symmetry._RayIndex([thetas[k] for k in order], order)
    around = index.around
    reach_pad = symmetry._ANGLE_ROUNDING
    acos = math.acos
    pi = math.pi
    windows = []
    for i, r_i in enumerate(radii):
        r2 = r_i * r_i
        room = b2 - r2 - big2 - 1e-12 * (b2 + r2 + big2)
        divisor = 2.0 * r_i * (big if room > 0.0 else low)
        bound = room / divisor if divisor > 0.0 else -1.0
        bound -= 1e-12 * abs(bound)
        reach = acos(min(bound, 1.0)) + reach_pad if bound > -1.0 else pi
        if reach >= pi:
            windows.append(hull[i + 1:])
        else:
            windows.append([hull[j] for j in sorted(around(thetas[i] + pi, reach)) if j > i])
    return windows


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
    """Whether the k-th occupied location is a safe point: no ray from it
    holds more than ceil(n/2) - 1 robots.

    The rays are those of ``symmetry._ray_clusters`` over ``Rays.of`` the
    location at ``eps_angle``: single-link chains of the sorted ``atan2 %
    TAU`` directions of the robots beyond the merge slack, each gap tested
    with ``<= eps_angle``, and the first and last chains merged when there
    are two or more and the gap across direction zero passes the same test.
    Only the longest chain's robot count is read, so the chains are found
    from the sorted directions alone, at C level: the gaps between
    neighbours, the same ``b - a`` doubles ``circular_clusters`` tests, and
    the positions where a gap exceeds the slack, which are exactly where it
    starts a new chain (no direction is NaN, so ``slack < gap`` is ``not gap
    <= slack``).  Between two breaks lies one chain; the first chain ends at
    the first break and the last starts after the last one, and they merge
    by the same wrap test, ``(first + TAU) - last <= slack``.  A direction
    sequence sorts to the same values whatever the order of equal ones, so
    every chain has the robot count of its cluster and the maximum is the
    same.
    """
    center = config.locations[k].location
    rays = symmetry.Rays.of(config, center)
    angles = rays.angles
    dirs = sorted([angles[i] for i in rays.off])
    limit = (config.n + 1) // 2 - 1
    slack = config.tol.eps_angle
    breaks = list(compress(range(len(dirs)), map(slack.__lt__, map(sub, dirs[1:], dirs))))
    if not breaks:
        return len(dirs) <= limit
    first = breaks[0] + 1
    last = len(dirs) - 1 - breaks[-1]
    if dirs[0] + TAU - dirs[-1] <= slack:
        first += last
    return max(first, last, *map(sub, breaks[1:], breaks)) <= limit


def classify(config: Configuration) -> ConfigClass:
    """Assign the configuration its unique class tag plus analysis detail.

    A diameter outside [``_MIN_DIAMETER``, ``_MAX_DIAMETER``] raises
    ``OutOfScale``, unless it is within the coordinates' ``resolution``:
    every robot is then within the merge slack of every other, one
    location of class M at any scale.
    """
    diameter = config.diameter
    if not _MIN_DIAMETER <= diameter <= _MAX_DIAMETER and diameter > config.resolution:
        raise OutOfScale(f"diameter {diameter!r} outside [{_MIN_DIAMETER!r}, {_MAX_DIAMETER!r}]")
    locs = config.locations

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
    through to the view order, ``symmetry.greatest_view``.  No safe point
    at all raises ``AsymmetryViolated``.

    Safety is tested lazily, with the same result as filtering every
    location through ``safe_points`` first.  The winning multiplicity is the
    highest one held by a safe location, so multiplicities are visited in
    descending order.  Within one, b is the lowest exact sum
    (``Configuration._sum_at``) of a safe location visited so far, and a
    location is tested only when its sum is below b, so b ends as the least
    sum of a safe visited location: one with a smaller sum was tested when
    it was visited, as its sum was below b then.  The tied set is every
    visited safe location whose sum is at most b + merge slack, in location
    order, the order ``symmetry.greatest_view`` needs.

    The visit is best first: a heap of lower bounds on the sums
    (``Configuration._lower_sums``), ties by location index, whose least
    entry is visited, and the visit stops at the first bound above b +
    merge slack.  Every location whose sum is at most b + merge slack is
    visited, as its bound is at most its sum.  Up to the size at which
    ``Configuration._sum_walks`` is None the bounds are the exact sums, so
    the heap pops in ascending-sum order.

    Above it the bounds are partial walks of ``_sum_walks``: the popped
    bound is refined, up to the lesser of b + merge slack and the level,
    and pushed back until it is complete and still least.  The level is
    the least complete bound since the last exact sum, inf when there is
    none; it starts at the location nearest the walks' centroid y, which
    has the least upper bound f(y) + n |c - y| on its sum (the triangle
    inequality), its walk completed first.  A location refined past b +
    merge slack is dropped, as b only falls; every other one is refined
    until it completes or passes the level, which it must pass anyway
    before the level's location, still in the heap, is visited.  So exact
    sums are taken in ascending order of complete bounds, and every
    location dropped or left in the heap has a bound above b + merge
    slack.
    """
    locs = config.locations
    slack = config.merge_slack
    lower = config._lower_sums
    walks = config._sum_walks
    safe: dict[int, bool] = {}

    def is_safe(k: int) -> bool:
        if k not in safe:
            safe[k] = _is_safe(config, k)
        return safe[k]

    for mult in sorted({loc.multiplicity for loc in locs}, reverse=True):
        group = [k for k, loc in enumerate(locs) if loc.multiplicity == mult]
        totals = {}
        best = level = math.inf
        heap = [(lower[k][2], k) for k in group]
        if walks is not None:
            nearest = min(group, key=walks.gaps.__getitem__)
            level = walks.refine(nearest, math.inf)
            heap[group.index(nearest)] = (level, nearest)
        heapify(heap)
        while heap:
            bound, k = heappop(heap)
            cap = best + slack
            if bound > cap:
                break
            if walks is not None:
                bound = walks.refine(k, min(cap, level))
                if bound > cap:
                    continue
                level = min(level, bound)
                if heap and bound > heap[0][0]:
                    heappush(heap, (bound, k))
                    continue
            total = totals[k] = config._sum_at(k)
            if total < best and is_safe(k):
                best = total
            level = math.inf
        tied = [k for k in sorted(totals) if totals[k] <= best + slack and is_safe(k)]
        if len(tied) == 1:
            return locs[tied[0]].location
        if tied:
            return symmetry.greatest_view(config, [locs[k].location for k in tied])
    raise AsymmetryViolated("non-linear configuration without a safe point")


def _assert_asymmetric(config: Configuration) -> None:
    """All views must be distinct when no quasi-regular structure exists.

    With chirality two views are equal only under a rotational symmetry
    about the centroid, which ``symmetry.symmetricity`` tests; one found
    raises ``AsymmetryViolated``.
    """
    sym = symmetry.symmetricity(config)
    if sym != 1:
        raise AsymmetryViolated(f"classified asymmetric but sym={sym}")


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
