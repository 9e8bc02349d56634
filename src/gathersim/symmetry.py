"""Views, rotational symmetry, quasi-regularity and Weber point machinery.

One structure test decides the rotational order of the rays around every
candidate center: ``_deficits_for`` places each ray in one of m slots and
counts the robots the center must give up to fill them.  An occupied center
runs it with its multiplicity, the unoccupied Weber candidate with
multiplicity 0.  The successor sweep around a center serves the class-M
side step.  ``symmetricity`` rotates each robot about the centroid and
matches its image; class A asserts an order of 1.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .errors import AllAtCenter, DegenerateCenter, LinearInput, NotOccupied
from .geometry import TAU, Point, _cached, _plain_sum, ccw_angle_of, dist, wrap_near_zero

if TYPE_CHECKING:
    from .configuration import Configuration

# Bounds on the cross-track noise of stored coordinates (a few ulps) and on
# the error of a converged geometric-median candidate, both relative to the
# configuration diameter.  Directions measured from a center are unreliable
# for robots much closer to it than these, so angle slacks widen accordingly.
_COORD_DRIFT = 3e-15
_CANDIDATE_ERROR = 1e-12
_MAX_ANGLE_SLACK = 0.01


class View(NamedTuple):
    """Scale-free polar encoding of a configuration from one occupied point.

    Entries are (clockwise angle from the reference direction, distance
    normalized by the configuration diameter, multiplicity), sorted by
    (angle, distance).  Views are ordered within the tolerances, not
    exactly: see ``_greatest``.
    """

    encoding: tuple[tuple[float, float, int], ...]


@dataclass
class QRegularityResult:
    """Detected rotational order m around a center.

    ``deficits`` maps ray directions (counterclockwise bearings from the
    center) to the number of robots that must leave the center to complete
    that ray; empty when the configuration is already regular.
    """

    center: Point
    m: int
    deficits: dict[float, int]


# --- shared low-level helpers ---------------------------------------------------


def circular_clusters(values: list[float], slack: float, modulus: float) -> list[tuple[float, list[int]]]:
    """Single-link clusters of circular values in [0, modulus).

    Returns (mean, member indices) pairs ordered by mean.  A cluster that
    straddles zero gets a mean slightly below zero rather than near the
    modulus, so consumers can compare means directly.

    Each mean sums its members in ascending order, a straddling cluster's
    shifted members last, left to right from 0.0 as the sweep meets them
    (``_plain_sum`` without a call per cluster).  Rounding can invert the
    means of neighbouring runs (at slack 0: three 0.1s, seven
    ``nextafter(0.1, 1)``), hence the sort.
    """
    if not values:
        return []
    order = sorted(range(len(values)), key=values.__getitem__)
    groups: list[list[int]] = [[order[0]]]
    prev = values[order[0]]
    sums = [0.0 + prev]
    for k in order[1:]:
        value = values[k]
        if value - prev <= slack:
            groups[-1].append(k)
            sums[-1] += value
        else:
            groups.append([k])
            sums.append(0.0 + value)
        prev = value
    wrap: list[int] = []
    if len(groups) > 1 and values[order[0]] + modulus - prev <= slack:
        wrap = groups.pop()
        sums.pop()
    total = sums[0]
    for k in wrap:
        total += values[k] - modulus
    first = groups[0]
    out = [(total / (len(first) + len(wrap)), sorted(first + wrap))]
    out += [(added / len(g), sorted(g)) for g, added in zip(groups[1:], sums[1:])]
    out.sort(key=itemgetter(0))
    return out


def _direction_slack(config: Configuration, r_min: float, center_error: float) -> float:
    """Angle slack widened for robots very close to the measuring center."""
    return _slack_by_r_min(config, center_error)(r_min)


def _slack_by_r_min(config: Configuration, center_error: float) -> Callable[[float], float]:
    """``_direction_slack`` at every r_min, its fixed factors (``eps_angle``
    and center_error * diameter) taken once, for loops over many centers:
    ``eps_angle`` at r_min <= 0, else center_error * diameter / r_min
    clamped to [``eps_angle``, ``_MAX_ANGLE_SLACK``]."""
    base = config.tol.eps_angle
    error = center_error * config.diameter

    def slack(r_min: float) -> float:
        if r_min <= 0.0:
            return base
        return min(max(base, error / r_min), _MAX_ANGLE_SLACK)

    return slack


# Rounding allowance for comparisons of directions: every direction in play
# lies within 4*pi of zero, so each float operation on one errs by under
# 9e-16, and the handful each comparison chains stay far below this.
_ANGLE_ROUNDING = 1e-13


class Rays:
    """Every robot's distance and direction from one center.

    Built once per (configuration, center) by ``Rays.of``, independent of
    any angle slack, and the only store of distances from a center.
    ``dists``, an ``array('d')``, holds ``hypot(x - cx, y - cy)`` for each
    robot (x, y): ``dist`` between robot and center either way round, as
    ``hypot`` ignores signs.  ``off`` lists the robots beyond the merge
    slack in index order and ``r_min`` is their smallest distance (0.0 when
    there are none).  ``angles[i]`` is robot i's ``ccw_angle_of % TAU``
    direction, or None within the merge slack, and ``index`` the robots of
    ``off`` sorted by direction; both are built on first use, as many
    centers never need a direction: above the cell-tree crossover, those
    whose exact sums ``Configuration._sums_at`` and ``_sum_at``, its only
    readers, take from ``_sums``.  They, ``_sums`` and ``at_center`` are
    ``geometry._cached`` attributes, kept in the instance ``__dict__`` from
    their first read, where ``built_index`` looks for ``index``.
    ``sweep_slack`` is the successor sweep's angle slack, None until
    ``successor`` first takes it.  Every ray test reads a ``Rays``: the
    successor sweep and the M side step around the elected point (and the M
    blocked test, once the side step has built the index), quasi-regularity
    around each candidate center, and the safe-point test around each
    location.  It keeps the points, never the configuration that caches it:
    a reference back would form a cycle that only the cyclic garbage
    collector frees.
    """

    def __init__(self, config: Configuration, center: Point):
        cx, cy = center
        hypot = math.hypot
        self.points = config.points
        self.center = center
        self.merge_slack = merge_slack = config.merge_slack
        self.dists = dists = array("d", [hypot(x - cx, y - cy) for x, y in config.points])
        self.off = off = [i for i, d in enumerate(dists) if d > merge_slack]
        self.r_min = min(map(dists.__getitem__, off)) if off else 0.0
        self.sweep_slack: float | None = None

    @_cached
    def angles(self) -> list[float | None]:
        cx, cy = self.center
        atan2 = math.atan2
        slack = self.merge_slack
        return [None if d <= slack else atan2(y - cy, x - cx) % TAU for (x, y), d in zip(self.points, self.dists)]

    @classmethod
    def of(cls, config: Configuration, center: Point) -> Rays:
        """The configuration's index around center, built on first use.

        Cached by center point.  Points that compare equal differ at most in
        the sign of a zero coordinate, which changes neither ``hypot`` nor a
        direction reduced by ``% TAU``.
        """
        rays = config._rays.get(center)
        if rays is None:
            rays = config._rays[center] = cls(config, center)
        return rays

    @_cached
    def index(self) -> _RayIndex:
        angles = self.angles
        order = sorted(self.off, key=angles.__getitem__)
        return _RayIndex([angles[i] for i in order], order)

    def built_index(self) -> _RayIndex | None:
        """``index`` if some reader has built it, else None; builds nothing."""
        return self.__dict__.get("index")

    @_cached
    def _sums(self) -> tuple[float, float, float]:
        """(pull, r_min, sum) at the center: pull is ``hypot`` of the unit
        vectors (x - cx, y - cy) / d toward the robots whose d exceeds the
        merge slack, added in index order from 0.0, and sum every robot's d
        added in index order (``Configuration._sums_at``)."""
        cx, cy = self.center
        slack = self.merge_slack
        pull_x = pull_y = total = 0.0
        for (x, y), d in zip(self.points, self.dists):
            total += d
            if d > slack:
                pull_x += (x - cx) / d
                pull_y += (y - cy) / d
        return math.hypot(pull_x, pull_y), self.r_min, total

    @_cached
    def at_center(self) -> list[int]:
        """The robots within the merge slack of the center, in index order."""
        slack = self.merge_slack
        return [i for i, d in enumerate(self.dists) if d <= slack]


def _cw(a: float, b: float, slack: float) -> float:
    """Clockwise angle from direction a to direction b; ~0 on the same ray."""
    return wrap_near_zero((a - b) % TAU, slack)


def _farthest_then_index(dists: Sequence[float], merge_slack: float, candidates: list[int]) -> int:
    """Max distance from the center with ties by max index.

    Distances of co-located robots may differ by rounding noise, so anything
    within the coincidence slack of the maximum counts as tied; otherwise the
    index tie-break the sweep relies on would be decided by ulps.
    """
    top = max(dists[k] for k in candidates)
    return max(k for k in candidates if dists[k] >= top - merge_slack)


def _successor_step(config: Configuration, rays: Rays, slack: float, i: int) -> int:
    """One step of the sweep: the first co-located robot below i, else the
    farthest robot on i's ray strictly inside it, else the farthest robot
    on the nearest ray clockwise (i's own ray after a full turn).

    Each rule keeps its exact predicate (``_cw`` against the slack, the
    merge-slack distance test, ``_farthest_then_index``) and applies it to
    the robots a lookup returns instead of to every robot; a lookup returns
    every robot the predicate can accept:

    * a robot within the merge slack of p_i shares i's location, as
      ``locations`` merges every such pair, so i's location lists it;
    * ``_cw(a, b, slack)`` errs by under 9e-16 from the true clockwise
      angle from a to b (one rounded subtraction, an exact ``fmod`` and at
      most one rounded turn added), and a sorted copy b + t*2*pi of a
      direction, a window's center or a bound, by as much again.  So a
      robot the inward or the bucket test accepts lies within slack + 5e-15
      of the window's center, and a window widened by ``_ANGLE_ROUNDING``
      holds it;
    * for the nearest clockwise ray, a - c is within 2e-15 of ``_cw`` for
      one copy c of each direction.  Every robot with ``_cw`` above the
      slack thus has a copy below a - slack + ``_ANGLE_ROUNDING`` and above
      a - 2*pi - ``_ANGLE_ROUNDING``, which the walk down the sorted copies
      meets; once a copy lies more than ``_ANGLE_ROUNDING`` beyond the
      smallest ``_cw`` found so far, no later copy can be smaller.
    """
    points = config.points
    merge_slack = config.merge_slack
    dists = rays.dists
    angles = rays.angles
    p_i = points[i]
    # co-located robots are visited in descending index order first
    members = config.location_of[i].indices
    for k in reversed(members[: bisect_left(members, i)]):
        if angles[k] is not None and dist(points[k], p_i) <= merge_slack:
            return k
    a = angles[i]
    index = rays.index
    reach = slack + _ANGLE_ROUNDING
    # then the nearest robot strictly between the center and p_i
    inside = [
        k
        for k in index.around(a, reach)
        if k != i
        and abs(_cw(a, angles[k], slack)) <= slack
        and dist(points[k], p_i) > merge_slack
        and dists[k] < dists[i]
    ]
    if inside:
        return _farthest_then_index(dists, merge_slack, inside)
    # otherwise jump to the angularly nearest ray in the clockwise direction,
    # entering at its farthest robot
    values = index.values
    labels = index.rays
    full_turn = a - TAU - _ANGLE_ROUNDING
    min_pos: float | None = None
    pos = bisect_right(values, a - slack + _ANGLE_ROUNDING)
    while pos:
        pos -= 1
        v = values[pos]
        if v < full_turn or (min_pos is not None and a - v > min_pos + _ANGLE_ROUNDING):
            break
        d = _cw(a, angles[labels[pos]], slack)
        if d > slack and (min_pos is None or d < min_pos):
            min_pos = d
    if min_pos is None:  # full turn back onto the own ray
        bucket = [k for k in index.around(a, reach) if abs(_cw(a, angles[k], slack)) <= slack]
    else:
        target = (a - min_pos) % TAU
        bucket = [k for k in index.around(target, reach) if abs(_cw(a, angles[k], slack) - min_pos) <= slack]
    assert bucket
    return _farthest_then_index(dists, merge_slack, bucket)


def successor(config: Configuration, i: int, c: Point) -> int:
    """Index of the clockwise successor of robot i around center c, at the
    angle slack ``eps_angle`` widened for the robot nearest c.

    The slack depends on c alone, so it is taken once per ``Rays`` and
    kept there (``Rays.sweep_slack``) for the rest of the sweep."""
    rays = Rays.of(config, c)
    if rays.angles[i] is None:
        raise DegenerateCenter(f"robot {i} sits on the center {c}")
    slack = rays.sweep_slack
    if slack is None:
        slack = rays.sweep_slack = _direction_slack(config, rays.r_min, _COORD_DRIFT)
    return _successor_step(config, rays, slack, i)


# --- views and symmetricity ------------------------------------------------------


def _center(config: Configuration) -> Point:
    """The ``math.fsum`` centroid g of the robots, or the point of the
    location within the merge slack of g: the center of every view and of
    ``symmetricity``."""
    n = config.n
    center = Point(math.fsum(x for x, _ in config.points) / n, math.fsum(y for _, y in config.points) / n)
    loc = config.find_location(center)
    return center if loc is None else loc.location


def view(config: Configuration, p: Point) -> View:
    """Polar encoding of the configuration as seen from occupied position p.

    The reference direction points toward the center (``_center``).  A
    robot located on the center instead takes each other location in turn
    as its reference and keeps the greatest encoding (``_greatest``).
    """
    loc = config.find_location(p)
    if loc is None:
        raise NotOccupied(f"{p} is not an occupied location")
    locs = config.locations
    if len(locs) == 1:
        return View(((0.0, 0.0, config.n),))
    center = _center(config)
    if dist(loc.location, center) > config.merge_slack:
        return View(_encode_from(config, loc.location, center))
    encodings = [_encode_from(config, loc.location, l.location) for l in locs if l is not loc]
    return View(encodings[_greatest(encodings, config)])


def greatest_view(config: Configuration, points: Sequence[Point]) -> Point:
    """The occupied point of greatest view, ties to the earliest (``_greatest``).

    Points given in robot-index order, as ``locations`` lists them, come in
    the same order in every local frame, so under chirality the result is
    the same in every frame (Suzuki and Yamashita, SIAM J. Comput. 1999),
    up to the knife edge of two entries about one tolerance apart.
    """
    return points[_greatest([view(config, p).encoding for p in points], config)]


def _greatest(encodings: list[tuple[tuple[float, float, int], ...]], config: Configuration) -> int:
    """The position of the running maximum of the encodings: a later one
    replaces the maximum only when it orders strictly above it.

    Two encodings are compared entry by entry, left to right: angles within
    ``eps_angle`` count as equal and so do distances within ``eps_len``,
    then multiplicities decide.  So the float noise of a robot's frame
    decides nothing, where an exact comparison could turn on an ulp (an
    entry on the reference ray, at angle +-0, against the view's own (0, 0)
    entry).
    """
    slacks = (config.tol.eps_angle, config.tol.eps_len, 0)
    best = 0
    for k in range(1, len(encodings)):
        pairs = zip(encodings[k], encodings[best])
        if next((x > y for a, b in pairs for x, y, slack in zip(a, b, slacks) if abs(x - y) > slack), False):
            best = k
    return best


def _encode_from(config: Configuration, origin: Point, ref: Point) -> tuple[tuple[float, float, int], ...]:
    eps = config.tol.eps_angle
    phi_ref = ccw_angle_of(ref, origin)
    dists = Rays.of(config, origin).dists
    raw = []
    for l in config.locations:
        d = dists[l.indices[0]]
        if d <= config.merge_slack:
            raw.append((0.0, 0.0, l.multiplicity))
        else:
            theta = wrap_near_zero((phi_ref - ccw_angle_of(l.location, origin)) % TAU, eps)
            raw.append((theta, d / config.diameter, l.multiplicity))
    # snap angles to cluster means so same-ray entries sort purely by radius
    clusters = circular_clusters([max(a, 0.0) % TAU for a, _, _ in raw], eps, TAU)
    return tuple(sorted((mean, raw[k][1], raw[k][2]) for mean, members in clusters for k in members))


_ROTATION_WINDOW = 0.1
_ROTATION_FLOOR = 4.0


def symmetricity(config: Configuration) -> int:
    """The order of the robots' rotational symmetry: the largest k >= 2 for
    which rotation by 2*pi/k about the center maps the robots onto
    themselves within the window, or 1.

    With chirality two views are equal only under such a rotation (Suzuki
    and Yamashita, SIAM J. Comput. 1999), so 1 means every view is
    distinct.  The center is ``_center``, the center of every view: the
    ``math.fsum`` centroid g, or the point of the location within the merge
    slack of g, which ``detect_quasi_regular`` tests.  Robots within the
    merge slack of the center are skipped, as its ray tests skip them.  Order k holds when,
    for every distinct point p of the rest, at distance r, as many robots
    lie within w = a * r / k + floor of p's image as of p, where
    a = _ROTATION_WINDOW * eps_angle and floor = _ROTATION_FLOOR *
    resolution.  Counting robots, not location
    representatives, sees a robot moved within its stack.  A robot within
    w of the image has a distance within 2w of r, so its candidates come
    from one binary search over the sorted distances.  Orders run over the
    divisors of the robot count off the center, largest first; an
    asymmetric configuration fails each on its first point, so the test
    costs O(n log n) (a symmetric one up to O(n^2)).

    Each order is tested first on the innermost point p0, at distance r0,
    often with one ``hypot``.  ``near`` around p0 or its image searches
    the ring points whose distance lies within [r0 - 2w, r0 + 2w].  No
    distance is below r0, so the search starts at p0; when the next
    distance exceeds r0 + 2w, computed as the very double ``near`` bisects
    to, it holds p0 alone.  Then ``near`` at p0 is p0's own count (its
    distance from itself is 0.0 <= w), and at the image that count when
    ``hypot`` from p0 to the image is at most w and 0 otherwise: the two
    are equal exactly when that one ``hypot`` is at most w.  Otherwise
    both ``near`` calls run.

    Exact symmetry passes.  Take the roundings of a configuration that the
    rotation about c maps onto itself, with no robot within the merge slack
    of c but those on it.  With M the largest coordinate magnitude and
    u = 2^-53, each coordinate errs by u*M, the centroid by about 3*u*M (so
    an occupied c is found as its location), and each computed image by a
    few u*(M + r) more: about 15*u*M + 4*u*r < 64*u*M = floor, as r < 3*M.
    So the robots near p and near its image correspond one to one, unless
    one lies that close to distance w from p: a stack split by about the
    window (a one-ulp split counts the same on both sides).

    A pass is quasi-regular.  Chained around an orbit, k steps of at most
    w put every j-th image within a * r + k * floor of a robot of its count
    (hence the 1/k).  So, seen from the center, each ray turned by a
    multiple of 2*pi/k meets a ray of equal count within
    d = a + k * floor / r, at most a fifth of ``eps_angle`` while
    k * floor / r <= a (for the default eps_angle of 1e-9, robots farther
    than about 7e-5 * k * M from the center), and the pull is below n*d,
    inside the skip threshold.  So the residues of order k chain in steps
    below the slack, and ``_structure`` finds one cluster per orbit, one ray
    per slot and equal counts: no deficit, which an occupied center's
    multiplicity covers and the unoccupied Weber candidate's multiplicity 0
    covers too.  The candidate is not the center itself, but on exactly
    symmetric input the Weber search lands within a quarter of
    ``_CANDIDATE_ERROR`` * D of it (a test checks orders 2 to 24 with one
    to three orbits).  Seen from a point e off the center, a robot at
    distance r turns by at most about e/r and its rotated image moves by at
    most 2e, so each step of the chain grows by at most 2e/r, under half
    the widening term ``_CANDIDATE_ERROR`` * D / r_min of the candidate's
    slack: the steps stay below d + slack/2, inside the slack.  Both
    centers are accepted away from the structure test's own knife edge:
    two rays or residues about one slack apart.
    """
    cx, cy = _center(config)
    hypot = math.hypot
    slack = config.merge_slack
    floor = _ROTATION_FLOOR * config.resolution
    relative = _ROTATION_WINDOW * config.tol.eps_angle
    ring = sorted((hypot(x - cx, y - cy), x, y, len(stack)) for (x, y), stack in config._distinct[0].items())
    ring = [point for point in ring if point[0] > slack]
    radii = [r for r, _, _, _ in ring]

    def near(x: float, y: float, r: float, window: float) -> int:
        """Robots within window of (x, y), a point at distance r from the center."""
        lo = bisect_left(radii, r - 2.0 * window)
        hi = bisect_right(radii, r + 2.0 * window)
        return sum(count for _, qx, qy, count in ring[lo:hi] if hypot(qx - x, qy - y) <= window)

    # the second-smallest distance, inf when the innermost point is alone
    beyond = radii[1] if len(radii) > 1 else math.inf

    def holds(k: int) -> bool:
        cos, sin = math.cos(TAU / k), math.sin(TAU / k)
        for j, (r, x, y, _) in enumerate(ring):
            window = relative / k * r + floor
            dx, dy = x - cx, y - cy
            ix, iy = cx + cos * dx - sin * dy, cy + sin * dx + cos * dy
            if j == 0 and beyond > r + 2.0 * window:
                if hypot(x - ix, y - iy) > window:
                    return False
            elif near(ix, iy, r, window) != near(x, y, r, window):
                return False
        return True

    off = sum(count for _, _, _, count in ring)
    return next((k for k in range(off, 1, -1) if off % k == 0 and holds(k)), 1)


# --- regularity and quasi-regularity ----------------------------------------------


def regularity_at(config: Configuration, c: Point, angle_slack: float | None = None) -> int:
    """Rotational order of the ray structure around c (1 when none).

    The largest order that ``_structure`` accepts with no robot on c: the
    rays of the robots off c fill every slot of each of their orbits with
    equal counts.  Robots within the merge slack of c are left out, as in
    every ray test.  The slack defaults to ``eps_angle``, widened for a
    robot very close to c.
    """
    rays = Rays.of(config, c)
    if not rays.off:
        raise AllAtCenter(f"no robot off the center {c}")
    if angle_slack is None:
        angle_slack = _direction_slack(config, rays.r_min, _COORD_DRIFT)
    res = _structure(config, c, 0, angle_slack)
    return 1 if res is None else res.m


def _ray_clusters(
    config: Configuration, c: Point, off: list[int], slack: float
) -> list[tuple[float, int]]:
    """(direction, robot count) per occupied ray from c, sorted by direction.

    ``off`` lists robots off c in index order; their directions come from
    the cached ``Rays`` around c.
    """
    angles = Rays.of(config, c).angles
    return [(mean, len(members)) for mean, members in circular_clusters([angles[i] for i in off], slack, TAU)]


class _RayIndex:
    """Ray directions with a copy one turn below and one above, sorted.

    Directions lie in [0, 2*pi) except for a cluster straddling zero, whose
    mean is slightly negative.  With the extra turns, the rays within a
    window (narrower than a turn) around any target in [0, 2*pi) are one
    contiguous slice, found by binary search.

    ``thetas`` are sorted and span at most a turn, so the three copies,
    each rounded monotonically, are sorted one after another.  ``rays``
    holds, for each entry of ``values``, its direction's position in
    ``thetas`` or its entry of ``labels``.  The same holds for directions
    in [-pi, pi], as ``configuration._partner_windows`` gives them.
    """

    __slots__ = ("thetas", "values", "rays")

    def __init__(self, thetas: list[float], labels: list[int] | None = None):
        self.thetas = thetas
        self.values = [theta - TAU for theta in thetas] + thetas + [theta + TAU for theta in thetas]
        self.rays = (list(range(len(thetas))) if labels is None else labels) * 3

    def around(self, target: float, reach: float) -> list[int]:
        """Indices of the rays within reach of target, up to rounding of the bounds."""
        lo = bisect_left(self.values, target - reach)
        hi = bisect_right(self.values, target + reach)
        return self.rays[lo:hi]


def _deficits_for(
    dirs: list[tuple[float, int]], mult_center: int, m: int, slack: float, center: Point
) -> QRegularityResult | None:
    step = TAU / m
    residues = [theta % step for theta, _ in dirs]
    orbits = circular_clusters(residues, slack, step)
    total = 0
    deficits: dict[float, int] = {}
    for _, members in orbits:
        if len(members) > m:
            return None
        counts = [dirs[k][1] for k in members]
        obj = max(counts)
        total += m * obj - sum(counts)
        if total > mult_center:
            return None
        anchor = dirs[members[0]][0]
        slot_count: dict[int, tuple[float, int]] = {}
        for k in members:
            theta = dirs[k][0]
            t = round(((theta - anchor) % TAU) / step) % m
            if t in slot_count:
                return None
            slot_count[t] = (theta, dirs[k][1])
        for t in range(m):
            theta, cnt = slot_count.get(t, ((anchor + t * step) % TAU, 0))
            if obj - cnt > 0:
                deficits[theta] = obj - cnt
    return QRegularityResult(center, m, deficits)


def _orbit_lower_bound(rays: int, robots: int, m: int) -> int:
    """Robots that must leave the center: every orbit needs m occupied slots."""
    return m * ((rays + m - 1) // m) - robots


def _partnerless_rays_exceed(index: _RayIndex, m: int, slack: float, budget: int) -> bool:
    """More than ``budget`` rays have no ray near their direction + 2*pi/m.

    Sound only as a rejection of order m; see ``_structure``.
    """
    step = TAU / m
    window = 2.0 * (m - 1) * slack
    if window >= step / 8.0:
        return False
    misses = 0
    for theta in index.thetas:
        if not index.around((theta + step) % TAU, window):
            misses += 1
            if misses > budget:
                return True
    return False


def _structure(config: Configuration, c: Point, multiplicity: int, slack: float) -> QRegularityResult | None:
    """The largest order m <= n at which ``_deficits_for`` accepts the rays
    around c with ``multiplicity`` robots on c, or None.

    This is the one structure test for every center: an occupied location
    passes its multiplicity, the unoccupied Weber candidate 0, so there it
    accepts only rays that already fill every slot of their orbits with
    equal counts.  Before ``_deficits_for`` runs, order m is rejected when
    either exact bound proves it would return None:

    * the integer lower bound: each orbit needs m occupied slots.
      ``_deficits_for`` does not repeat it: an order it rejects would end
      there with a deficit total above the multiplicity anyway;
    * the partner count.  An orbit's residue cluster holds at most m rays,
      so its single-link chain spans at most (m-1)*slack.  While
      2*(m-1)*slack stays below step/8 (step = 2*pi/m), every ray rounds to
      its own slot and a ray in the next slot lies within that window of the
      direction + step.  So a ray with no ray in the window leaves its
      orbit's next slot empty, a distinct slot per ray (two rays sharing one
      would also share a slot, which the full test rejects), and each empty
      slot costs at least one deficit.  The deficits total at most the
      multiplicity, so more partnerless rays than that reject m.

    The rays are clustered and sorted once, O(n log n); the partner count
    walks the sorted directions, one binary search each, and stops at the
    first miss beyond the multiplicity.  The verdict does not depend on the
    order of the walk.
    """
    off = Rays.of(config, c).off
    dirs = _ray_clusters(config, c, off, slack)
    index = _RayIndex([theta for theta, _ in dirs])
    for m in range(config.n, 1, -1):
        if _orbit_lower_bound(len(dirs), len(off), m) > multiplicity:
            continue
        if _partnerless_rays_exceed(index, m, slack, multiplicity):
            continue
        res = _deficits_for(dirs, multiplicity, m, slack, c)
        if res is not None:
            return res
    return None


def detect_quasi_regular(config: Configuration) -> QRegularityResult | None:
    """Find the center and maximal order of quasi-regularity, if any.

    Every candidate center runs the same structure test, ``_structure``:
    each occupied location with its multiplicity, for every order down from
    n, then the geometric-median candidate, which can only be the center of
    an already regular configuration, with multiplicity 0 at the
    ``_CANDIDATE_ERROR`` slack.

    The candidate is ``weber_numeric``'s point, searched once with the
    surviving locations as ``_weber_start``'s vertex list (see below), and
    the verdict is taken once there: at a location, or with regularity
    order below 2, the result is None; otherwise the candidate is the QR
    center.  The search runs in its two steps.  After the vertex check and
    the reweighting (``_weber_start``), ``_rejects_every_order`` bounds,
    from one pass at the reweighting's end point y, a disc around y that
    holds the point the Newton polish would reach, and rejects every order
    for every center in that disc.  Only when it cannot does the polish run
    from the same y, followed by the structure test at its point, so the
    result is the same as after ``weber_numeric``.  On class-A input the
    certificate usually holds, and neither the polish nor the candidate's
    ``Rays`` is built.  The certificate runs only when the reweighting did
    not stop on its first pass from the centroid.  It stops there on a
    rotationally symmetric configuration, whose centroid is its Weber point
    and a regular center, where the certificate fails.  The certificate
    only spares work, so without it the polish and the structure test give
    the same verdict.

    Before its structure test, an occupied center c of multiplicity mu is
    skipped for every order when the unit vectors toward the robots off c
    sum to a vector P_c with |P_c| > mu + 3*n^2*slack + n*1e-12.  This is
    the tolerant form of the Weber-point condition: the center of a
    quasi-regular configuration is its Weber point, and an occupied point
    is the Weber point exactly when its pull |P_c| is at most its
    multiplicity.  Soundness: suppose
    ``_deficits_for`` accepts order m at c and add its at most mu deficit
    robots.  Each orbit's rays then lie within (m-1)*slack of the slots of
    an exact m-fold structure with equal counts per slot, whose unit vectors
    sum to zero, and each robot lies within (count-1)*slack of its ray's
    mean direction.  A unit vector moves by at most the angle it turns, so
    |P_c| <= mu + slack*((m-1)*(|off|+mu) + |off|^2) < mu + 3*n^2*slack,
    and the n*1e-12 term covers float rounding of the sum.  The skip only
    removes centers where no order would be accepted, so the result is the
    same as without it.

    The location loop takes the slack's fixed factors once, and 3*n^2 and
    n*1e-12 too (``_skip_terms``): the same doubles, added in the same
    order, as the threshold written out above.  Each pull is first compared
    with the widest threshold, 3*n^2 times the slack at the least r_min
    bound: the slack never grows with r_min above 0 (a division by a larger
    positive double, max and min are monotone), nor do a product with 3*n^2
    and two sums, so a pull above the widest threshold is above its own.
    Only the others take their own slack; with a bound of r_min at or below
    0, where the slack is ``eps_angle`` again, every center takes its own.

    The pull is bounded before it is computed.  ``Configuration._lower_sums``
    gives, for every location, a lower bound on the computed |P_c| and one
    on r_min, which bounds the slack from above (``_direction_slack`` only
    grows as r_min shrinks, and float division, max and min are monotone).
    A center whose pull bound exceeds the skip threshold at that slack
    would be skipped by the exact test too, so it is skipped without
    measuring it.  Every other center takes its exact pull and r_min from
    ``Configuration._sums_at`` and runs the exact test; directions are
    computed only for the centers that pass it, in ``_structure``.  On
    generic configurations almost every center fails the pull bound, so
    the occupied-center search costs the bounds plus O(n log n) per
    surviving center.

    The Weber search that follows checks only the surviving centers as
    possible optimal vertices, in location order.  A skipped location has
    |P_c| > mu + 3*n^2*slack + n*1e-12, where slack >= 3e-15 (the widened
    slack is at least ``_COORD_DRIFT``, as r_min <= diameter), while the
    vertex test in ``_weber_start`` accepts a pull of at most
    mu*(1+1e-12) < mu + n*1e-12, as mu <= n-2 in a non-linear
    configuration.  The margin is over 9e-15*n^2.  When every robot sits
    exactly on its location's point, the pull that ``_weber_start`` sums
    over locations, each term times its multiplicity, is made of the same
    unit-vector terms as P_c, so the two differ only by the rounding of at
    most n terms of size at most 1: a few times n^2*1.1e-16, far inside the
    margin.  A skipped location therefore fails the vertex test too, and
    the first accepted vertex is the same.  The simulator keeps robots
    exact, as arrivals snap onto their destination; when some robot is off
    its location's point by a sliver within the merge slack, its direction
    from a nearby center can turn far more than the margin, so every
    location is checked.  Where every location holds one robot, each robot
    is its location's point, and no scan is needed to say so.
    """
    if config.is_linear:
        raise LinearInput("quasi-regularity is defined for non-linear configurations")
    points = config.points
    lower = config._lower_sums
    slack_at, spread, rounding = _skip_terms(config)
    lowest = min(r_min for _, r_min, _ in lower)
    widest = spread * slack_at(lowest) if lowest > 0.0 else math.inf
    survivors = []
    for k, loc in enumerate(config.locations):
        pull, r_min, _ = lower[k]
        if pull > loc.multiplicity + widest + rounding or pull > loc.multiplicity + spread * slack_at(r_min) + rounding:
            continue
        pull, r_min, _ = config._sums_at(k)
        slack = slack_at(r_min)
        if pull > loc.multiplicity + spread * slack + rounding:
            continue
        survivors.append(k)
        res = _structure(config, loc.location, loc.multiplicity, slack)
        if res is not None:
            return res
    exact = len(config.locations) == config.n or all(
        points[i] == loc.location for loc in config.locations for i in loc.indices
    )
    xs, ys, ms = sites = _sites(config)
    start, passes = _weber_start(config, sites, survivors if exact else None)
    if not passes or (passes > 1 and _rejects_every_order(config, sites, start, exact)):
        return None
    candidate = _newton_polish(xs, ys, ms, start, config.diameter)
    order = _unoccupied_order(config, candidate)
    if order < 2:
        return None
    return QRegularityResult(candidate, order, {})


def _skip_terms(config: Configuration) -> tuple[Callable[[float], float], float, float]:
    """The terms of ``detect_quasi_regular``'s skip threshold: the slack at
    every r_min (``_slack_by_r_min`` at ``_COORD_DRIFT``), 3*n^2 and
    n*1e-12; a center of multiplicity mu is skipped when its pull exceeds
    mu + 3*n^2*slack + n*1e-12."""
    n = config.n
    return _slack_by_r_min(config, _COORD_DRIFT), 3.0 * n * n, n * 1e-12


def _rejects_every_order(
    config: Configuration, sites: _Sites, y: Point, exact: bool
) -> bool:
    """Whether the candidate ``_newton_polish`` reaches from y provably has
    order < 2 as an unoccupied center; ``exact`` says every robot sits on
    its location's point.

    ``_polish_disc`` puts that candidate c within R of y.  Let delta be the
    largest distance of a robot from its location's point and s = R +
    delta, at most d_min / 2, d_min the nearest location's distance from y.
    A robot of location j then lies at least d_min / 2 from c, beyond the
    merge slack (checked: d_min > 4 * merge slack), so every robot is off c
    and the slack ``_unoccupied_order`` uses there is at most
    ``_direction_slack`` at d_min / 4.  Its direction from c differs from
    phi_j, the direction of location j from y, by at most asin(s / d_j) <=
    1.05 * s / d_j, as s / d_j <= 1/2.

    Suppose ``_structure`` accepts order m at c with multiplicity 0.  Then
    ``_deficits_for`` has filled every slot of every orbit with equal
    counts, so m divides n, and while 16 * (m - 1) * slack < 2*pi/m each
    ray has a ray within 2 * (m - 1) * slack of its direction + 2*pi/m (the
    partner argument in ``_structure``).  Each robot lies within (count - 1)
    * slack of its ray's mean and the two rays hold at most n robots, so
    every robot has a robot within (2m + n - 4) * slack of its direction +
    2*pi/m, seen from c.  Seen from y, every location j thus has a location
    k within 1.05 * s * (1/d_j + 1/d_k) + (2m + n) * slack of phi_j +
    2*pi/m, where 4 * ``_ANGLE_ROUNDING`` covers the rounding of the
    directions.  So one location without such a partner rejects m, one
    sort and a binary search per location, as in ``_RayIndex``.  When every
    divisor m >= 2 of n is rejected, the order at c is below 2 (0 when c is
    a location), and the search ends as it would after the polish.
    """
    disc = _polish_disc(sites, y, config.n)
    if disc is None:
        return False
    spread, ds = disc
    if not exact:
        spread += max(dist(config.points[i], loc.location) for loc in config.locations for i in loc.indices)
    d_min = min(ds)
    if 2.0 * spread > d_min or d_min <= 4.0 * config.merge_slack:
        return False
    xs, ys, _ = sites
    yx, yy = y
    n = config.n
    slack = _direction_slack(config, 0.25 * d_min, _CANDIDATE_ERROR)
    atan2 = math.atan2
    phis = [atan2(ly - yy, lx - yx) % TAU for lx, ly in zip(xs, ys)]
    turns = [1.05 * spread / d for d in ds]
    widest = 1.05 * spread / d_min + _ANGLE_ROUNDING
    order = sorted(range(len(phis)), key=phis.__getitem__)
    index = _RayIndex([phis[k] for k in order], order)
    pi = math.pi
    for m in range(2, n + 1):
        if n % m:
            continue
        step = TAU / m
        if 16.0 * (m - 1) * slack >= step:
            return False
        room = (2 * m + n) * slack + 4.0 * _ANGLE_ROUNDING
        for phi, turn in zip(phis, turns):
            target = (phi + step) % TAU
            window = turn + room
            near = index.around(target, window + widest)
            if not near or not any(abs((phis[k] - target + pi) % TAU - pi) <= window + turns[k] for k in near):
                break  # this location has no partner: order m fails
        else:
            return False
    return True


def _polish_disc(
    sites: _Sites, y: Point, n: int
) -> tuple[float, list[float]] | None:
    """A radius R such that ``_newton_polish`` from y ends within R of y,
    and the distances d_j from y to the locations; None when not certified.

    The polish descends f(z) = sum of m_j * |z - p_j| over the locations
    p_j of multiplicity m_j (n robots in all).  Away from the p_j the
    Hessian of f is the sum of w_j * (I - u_j u_j^T), u_j the unit vector
    from p_j to z and w_j = m_j / |z - p_j|; its smallest eigenvalue is
    (sum of w_j - |sum of w_j * e^(2i phi_j)|) / 2, phi_j the direction of
    u_j.  One pass at y gives the d_j, the gradient norm g and that
    eigenvalue, lam0.  Take rho = min(d_min / 2, 4 * g / lam0).  On the
    disc B(y, rho) every w_j is at least m_j / (d_j + rho), and w_j *
    e^(2i phi_j) = m_j * h(z - p_j), with h(v) = v^2 / |v|^3 in complex
    terms, moves by at most 2 * m_j * rho / (d_j - rho)^2 from its value at
    y, as |h'(v)| = 2 / |v|^2 and the disc stays d_j - rho from p_j.  So on
    the disc the Hessian is at least lam = (sum of m_j / (d_j + rho) - |sum
    at y| - 2 * rho * sum of m_j / (d_j - rho)^2) / 2.

    Let 2 * g < lam * rho.  On the circle |z - y| = rho, f(z) >= f(y) - g
    * rho + lam * rho^2 / 2 > f(y), so the minimizer c* of f lies in the
    disc, within g / lam of y (along the segment from y to c* the slope
    grows by at least lam per unit length).  Along the ray from c* through
    a point z the slope grows by at least lam per unit length up to the
    circle, at least rho - g / lam away, and never falls after it; so z,
    with gradient norm G < lam * rho - g, lies within G / lam of c*.  The
    polish ends at y or at a step it accepted because the gradient norm it
    computes fell, never on a p_j (there its norm is inf), so its end point
    has G at most g plus rounding, and lies within R = 2 * g / lam of y.

    Rounding (u = 2^-53, L locations): each computed gradient norm errs by
    at most 1.5 * (L + 5) * n * u, as each term m_j * (z - p_j) / d_j errs
    by a relative 5u and the running sums by (L - 1) * n * u.  The polish
    takes at most 60 steps and compares two norms in each, so its end
    point's norm exceeds the computed g by at most 121 such errors, and the
    true g does by 1: adding 1.5e-14 * (L + 5) * n to g, twice that to 2g,
    covers all 122.  The
    terms of lam add up to at most 6 * s1 (s1 the sum of m_j / d_j) and err
    by a relative (L + 8) * u; lam is lowered by 1e-15 * (L + 10) * s1.

    Scale: lengths are taken in units of 2^e, d_0 in [2^(e-1), 2^e) for
    the first location's distance d_0 (``math.frexp``).  Multiplying by a
    power of two is exact unless the result leaves the normal range, so
    every operation gives exactly its plain result over the matching power
    of 2^e, and R and the d_j are the very doubles of the plain computation
    wherever that neither overflows nor underflows.  Where the caller can
    accept the disc, d_min > 4 * merge slack >= 3.5e-15 * D (the resolution
    is at least 8 ulps of D / 2), and y lies about within the locations'
    hull, so every d_j / d_0 lies within about [3.5e-15, 2.9e14] and the
    m_j / d_j^3 terms stay in range at every scale; an overflow elsewhere
    yields None, or a radius the caller's d_min test rejects.
    """
    xs, ys, ms = sites
    yx, yy = y
    hypot = math.hypot
    inv = math.ldexp(1.0, -math.frexp(hypot(yx - xs[0], yy - ys[0]))[1])
    gx = gy = s1 = cx = cy = 0.0
    ds = []
    scaled = []
    for lx, ly, m in zip(xs, ys, ms):
        dx = yx - lx
        dy = yy - ly
        d = hypot(dx, dy)
        if d == 0.0:
            return None
        ds.append(d)
        dx *= inv
        dy *= inv
        d *= inv
        w = m / d
        gx += w * dx
        gy += w * dy
        s1 += w
        q = w / (d * d)
        cx += q * (dx - dy) * (dx + dy)
        cy += 2.0 * q * dx * dy
        scaled.append(d)
    g = hypot(gx, gy) + 1.5e-14 * (len(ds) + 5) * n
    a = hypot(cx, cy)
    lam = 0.5 * (s1 - a)
    if lam <= 0.0:
        return None
    rho = min(0.5 * min(scaled), 4.0 * g / lam)
    near = _plain_sum([m / (d + rho) for d, m in zip(scaled, ms)])
    turning = _plain_sum([m / ((d - rho) * (d - rho)) for d, m in zip(scaled, ms)])
    lam = 0.5 * (near - a - 2.0 * rho * turning) - 1e-15 * (len(ds) + 10) * s1
    if lam * rho <= 2.0 * g:
        return None
    return 2.0 * g / lam / inv, ds


def _unoccupied_order(config: Configuration, c: Point) -> int:
    """The regularity order of c as an unoccupied center; 0 at a location."""
    if config.find_location(c) is not None:
        return 0
    slack = _direction_slack(config, min(Rays.of(config, c).dists), _CANDIDATE_ERROR)
    return regularity_at(config, c, slack)


# --- Weber point ------------------------------------------------------------------

# the Weber objective's terms: location x and y coordinates, multiplicities
_Sites = tuple[list[float], list[float], list[int]]
_REWEIGHT_STOP_REL = 1e-3
_VERTEX_PUSH_REL = 1e-10
_POLISH_STEP_REL = 1e-15
# a guard that never binds: reweighting to the stop took at most 134 passes
# (push-offs included) over sweep-small seeds 1, 2 and 13, sync-large seeds
# 1-2, classify-snapshots seeds 1-3, the acceptance sweep and the test inputs
_WEBER_MAX_ITER = 1000


def weber_numeric(config: Configuration) -> Point:
    """Geometric median: iterative reweighting plus a Newton polish.

    Non-linear configurations only, where the minimizer is unique.  Occupied
    locations are checked for optimality directly, so medians that sit on a
    robot are returned exactly.

    ``_weber_start`` runs the vertex check and the reweighting; the damped
    Newton steps of ``_newton_polish`` on the (there smooth) objective then
    converge quadratically to full float precision, also where reweighting
    alone would stall near an occupied location.  ``detect_quasi_regular``
    runs the same two steps, with a certificate between them that can make
    the polish unnecessary.
    """
    if config.is_linear:
        raise LinearInput("the Weber point of a linear configuration is not unique")
    xs, ys, ms = sites = _sites(config)
    start, passes = _weber_start(config, sites, None)
    return _newton_polish(xs, ys, ms, start, config.diameter) if passes else start


def _sites(config: Configuration) -> _Sites:
    """The terms of the Weber objective: location coordinates and multiplicities."""
    locs = config.locations
    return [l.location.x for l in locs], [l.location.y for l in locs], [l.multiplicity for l in locs]


def _weber_start(
    config: Configuration, sites: _Sites, vertices: Sequence[int] | None
) -> tuple[Point, int]:
    """The first optimal vertex and 0, else the point the polish starts from
    and the number of reweighting passes that reached it, push-offs included.

    ``vertices`` lists the indices into ``config.locations``, ascending, of
    the locations checked for optimality; None checks every location, and a
    caller may leave out only locations that provably fail the check (see
    ``detect_quasi_regular``).
    Reweighting (Weiszfeld's iteration) starts at the centroid and runs
    until a step is at most ``_REWEIGHT_STOP_REL`` times the diameter D; an
    iterate within ``_VERTEX_PUSH_REL`` * D of a location is pushed off it
    first.
    """
    xs, ys, ms = sites
    locs = config.locations
    diam = config.diameter
    tiny = _VERTEX_PUSH_REL * diam
    stop = _REWEIGHT_STOP_REL * diam

    for a in range(len(locs)) if vertices is None else vertices:
        gx, gy = _pull_vector(xs, ys, ms, a, _vertex_dists(config, a))
        if math.hypot(gx, gy) <= ms[a] * (1.0 + 1e-12):
            return locs[a].location, 0

    sx = _plain_sum(x * m for x, m in zip(xs, ms))
    sy = _plain_sum(y * m for y, m in zip(ys, ms))
    yx = sx / config.n
    yy = sy / config.n
    for passes in range(1, _WEBER_MAX_ITER + 1):
        # the weight pass stops at the first location near y and pushes off it
        wx = wy = wsum = 0.0
        for a, (lx, ly, m) in enumerate(zip(xs, ys, ms)):
            d = math.hypot(lx - yx, ly - yy)
            if d <= tiny:
                yx, yy = _push_off_vertex(xs, ys, ms, a, _vertex_dists(config, a))
                break
            w = m / d
            wx += w * lx
            wy += w * ly
            wsum += w
        else:
            nx = wx / wsum
            ny = wy / wsum
            step = math.hypot(nx - yx, ny - yy)
            yx, yy = nx, ny
            if step <= stop:
                break
    return Point(yx, yy), passes


def _vertex_dists(config: Configuration, a: int) -> list[float]:
    """Distance from location a to each location, from a's ``Rays``."""
    row = Rays.of(config, config.locations[a].location).dists
    return [row[l.indices[0]] for l in config.locations]


def _gradient(xs, ys, ms, y: Point) -> tuple[float, float, float]:
    yx, yy = y
    gx = gy = 0.0
    for lx, ly, m in zip(xs, ys, ms):
        d = math.hypot(lx - yx, ly - yy)
        if d == 0.0:
            return math.inf, math.inf, math.inf
        gx += m * (yx - lx) / d
        gy += m * (yy - ly) / d
    return gx, gy, math.hypot(gx, gy)


def _newton_polish(xs, ys, ms, y: Point, diam: float) -> Point:
    floor = 1e-17 * diam
    for _ in range(60):
        yx, yy = y
        gx = gy = 0.0
        hxx = hxy = hyy = 0.0
        for lx, ly, m in zip(xs, ys, ms):
            dx = yx - lx
            dy = yy - ly
            d = math.hypot(dx, dy)
            if d <= floor:
                return y
            ux = dx / d
            uy = dy / d
            gx += m * ux
            gy += m * uy
            curve = m / d
            hxx += curve * (1.0 - ux * ux)
            hxy -= curve * ux * uy
            hyy += curve * (1.0 - uy * uy)
        det = hxx * hyy - hxy * hxy
        gnorm = math.hypot(gx, gy)
        if det <= 0.0 or gnorm == 0.0:
            return y
        sx = (hyy * gx - hxy * gy) / det
        sy = (hxx * gy - hxy * gx) / det
        t = 1.0
        tried = None
        while t > 1e-6:
            candidate = Point(yx - t * sx, yy - t * sy)
            # once t*s is below half an ulp of y, halving t no longer moves
            # the candidate and its gradient is already known (== differs
            # from bitwise equality only on signed zeros, which the norm ignores)
            if candidate != tried:
                tried = candidate
                descends = _gradient(xs, ys, ms, candidate)[2] < gnorm
            if descends:
                break
            t *= 0.5
        else:
            return y
        step = t * math.hypot(sx, sy)
        y = candidate
        if step <= _POLISH_STEP_REL * diam:
            return y
    return y


def _pull_vector(xs, ys, ms, a: int, dists: list[float]) -> tuple[float, float]:
    """Sum of the unit vectors from location a toward the others, by multiplicity."""
    ax = xs[a]
    ay = ys[a]
    gx = gy = 0.0
    for k, d in enumerate(dists):
        if k == a:
            continue
        gx += ms[k] * (xs[k] - ax) / d
        gy += ms[k] * (ys[k] - ay) / d
    return gx, gy


def _push_off_vertex(xs, ys, ms, a: int, dists: list[float]) -> tuple[float, float]:
    gx, gy = _pull_vector(xs, ys, ms, a, dists)
    norm = math.hypot(gx, gy)
    damping = _plain_sum(m / d for k, (m, d) in enumerate(zip(ms, dists)) if k != a)
    t = (norm - ms[a]) / damping
    return xs[a] + t * gx / norm, ys[a] + t * gy / norm

