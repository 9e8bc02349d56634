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
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import AllAtCenter, DegenerateCenter, LinearInput, NotOccupied
from .geometry import TAU, Point, _cached, _plain_sum, ccw_angle_of, dist, smallest_enclosing_circle, wrap_near_zero

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
    normalized by the enclosing-circle radius, multiplicity), sorted by
    (angle, distance).
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
    base = config.tol.eps_angle
    if r_min <= 0.0:
        return base
    widened = center_error * config.diameter / r_min
    return min(max(base, widened), _MAX_ANGLE_SLACK)


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
    centers (the locations whose exact pull or distance sum the cell-tree
    path takes) never need a direction.  They and ``at_center`` are
    ``geometry._cached`` attributes, kept in the instance ``__dict__``
    from their first read, where ``built_index`` looks for ``index``.  Up
    to ``configuration._TREE_FROM`` robots no location builds one for its
    pull or sum at all:
    ``Configuration._pair_sums`` takes every location's, bit for bit as its
    ``Rays`` would, in one pass over the robot pairs, with half the
    ``hypot`` calls of one ``Rays`` per robot (48 us at n = 20, against
    102 us for the tree's build and walks; see ``Configuration._cells``).
    Every ray test reads a ``Rays``: the successor sweep and the M side
    step around the elected point (and the M blocked test, once the side
    step has built the index), quasi-regularity around each candidate
    center, and the safe-point test around each location.
    It keeps the points, never the configuration that caches it: a
    reference back would form a cycle that only the cyclic garbage
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
    def at_center(self) -> list[int]:
        """The robots within the merge slack of the center, in index order."""
        slack = self.merge_slack
        return [i for i, d in enumerate(self.dists) if d <= slack]


def _sweep_slack(config: Configuration, rays: Rays, angle_slack: float | None) -> float:
    """The given angle slack, or the default widened for the nearest robot."""
    if angle_slack is None:
        return _direction_slack(config, rays.r_min, _COORD_DRIFT)
    return angle_slack


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


def successor(config: Configuration, i: int, c: Point, angle_slack: float | None = None) -> int:
    """Index of the clockwise successor of robot i around center c."""
    rays = Rays.of(config, c)
    if rays.angles[i] is None:
        raise DegenerateCenter(f"robot {i} sits on the center {c}")
    return _successor_step(config, rays, _sweep_slack(config, rays, angle_slack), i)


# --- views and symmetricity ------------------------------------------------------


def view(config: Configuration, p: Point) -> View:
    """Polar encoding of the configuration as seen from occupied position p.

    The reference direction points toward the center of the smallest
    enclosing circle; a robot located on that center instead uses whichever
    other occupied position maximizes its own encoding.
    """
    loc = config.find_location(p)
    if loc is None:
        raise NotOccupied(f"{p} is not an occupied location")
    locs = config.locations
    if len(locs) == 1:
        return View(((0.0, 0.0, config.n),))
    occupied = [l.location for l in locs]
    sec = smallest_enclosing_circle(occupied)
    if dist(loc.location, sec.center) > config.merge_slack:
        refs = [sec.center]
    else:
        refs = [l.location for l in locs if l is not loc]
    best: tuple[tuple[float, float, int], ...] | None = None
    for ref in refs:
        enc = _encode_from(config, loc.location, ref, sec.radius)
        if best is None or enc > best:
            best = enc
    assert best is not None
    return View(best)


def _encode_from(
    config: Configuration, origin: Point, ref: Point, sec_radius: float
) -> tuple[tuple[float, float, int], ...]:
    eps = config.tol.eps_angle
    phi_ref = ccw_angle_of(ref, origin)
    dists = Rays.of(config, origin).dists
    raw = []
    for l in config.locations:
        d = dists[l.indices[0]]
        if d <= config.merge_slack:
            raw.append((0.0, 0.0, l.multiplicity))
        else:
            theta = (phi_ref - ccw_angle_of(l.location, origin)) % TAU
            theta = wrap_near_zero(theta, eps)
            raw.append((theta, d / sec_radius, l.multiplicity))
    # snap angles to cluster means so same-ray entries sort purely by radius
    clusters = circular_clusters([max(a, 0.0) % TAU for a, _, _ in raw], eps, TAU)
    snapped = [0.0] * len(raw)
    for mean, members in clusters:
        for k in members:
            snapped[k] = mean
    entries = sorted((snapped[k], raw[k][1], raw[k][2]) for k in range(len(raw)))
    return tuple(entries)


_ROTATION_WINDOW = 0.1
_ROTATION_FLOOR = 4.0


def symmetricity(config: Configuration) -> int:
    """The order of the robots' rotational symmetry: the largest k >= 2 for
    which rotation by 2*pi/k about the center maps the robots onto
    themselves within the window, or 1.

    With chirality two views are equal only under such a rotation (Suzuki
    and Yamashita, SIAM J. Comput. 1999), so 1 means every view is
    distinct.  The center is the ``math.fsum`` centroid g, or the point of
    the location within the merge slack of g: the center that
    ``detect_quasi_regular`` tests.  Robots within the merge slack of the
    center are skipped, as its ray tests skip them.  Order k holds when,
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
    n = config.n
    center = Point(math.fsum(x for x, _ in config.points) / n, math.fsum(y for _, y in config.points) / n)
    loc = config.find_location(center)
    cx, cy = center if loc is None else loc.location
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

    def holds(k: int) -> bool:
        cos, sin = math.cos(TAU / k), math.sin(TAU / k)
        for r, x, y, _ in ring:
            window = relative / k * r + floor
            dx, dy = x - cx, y - cy
            if near(cx + cos * dx - sin * dy, cy + sin * dx + cos * dy, r, window) != near(x, y, r, window):
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
    res = _structure(config, c, 0, _sweep_slack(config, rays, angle_slack))
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
    ``thetas`` or its entry of ``labels``.  ``probes`` lists the directions clockwise from the ray that opens the
    widest empty sector: rotated counterclockwise by less than that sector,
    it and its clockwise neighbours land in the sector, so a search for rays
    without a rotated partner meets them first.
    """

    __slots__ = ("values", "rays", "probes")

    def __init__(self, thetas: list[float], labels: list[int] | None = None):
        self.values = [theta - TAU for theta in thetas] + thetas + [theta + TAU for theta in thetas]
        self.rays = (list(range(len(thetas))) if labels is None else labels) * 3
        gaps = [b - a for a, b in zip(thetas, thetas[1:])] + [thetas[0] + TAU - thetas[-1]]
        opener = max(range(len(gaps)), key=gaps.__getitem__)
        self.probes = thetas[opener::-1] + thetas[:opener:-1]

    def around(self, target: float, reach: float) -> list[int]:
        """Indices of the rays within reach of target, up to rounding of the bounds."""
        lo = bisect_left(self.values, target - reach)
        hi = bisect_right(self.values, target + reach)
        return self.rays[lo:hi]


def _deficits_for(
    dirs: list[tuple[float, int]], mult_center: int, m: int, slack: float, center: Point
) -> QRegularityResult | None:
    step = TAU / m
    if _orbit_lower_bound(len(dirs), sum(c for _, c in dirs), m) > mult_center:
        return None
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
    for theta in index.probes:
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

    * the integer lower bound: each orbit needs m occupied slots;
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
    stops at the first miss beyond the multiplicity, each miss found by
    binary search.
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
    surviving locations as its vertex list (see below), and the verdict is
    taken once there: at a location, or with regularity order below 2, the
    result is None; otherwise the candidate is the QR center.

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

    Up to ``configuration._TREE_FROM`` robots every location's pull and
    r_min come from ``Configuration._pair_sums``, one exact pass over the
    robot pairs whose doubles are those of the location's ``Rays``, and
    only the centers that pass the test build a ``Rays``, in
    ``_structure``.  The pass costs O(n^2) terms, half of the O(n^2) a
    row per location costs, and below the cutoff less than the tree: 48
    against 102 us at n = 20, 438 against 592 us at 64 (see
    ``Configuration._cells`` for the crossover).

    Above the cutoff the pull is bounded before it is computed.
    ``CellTree.bounds`` gives, from one walk down the
    configuration's cell tree, a lower bound on the computed |P_c| and one
    on r_min, which bounds the slack from above (``_direction_slack`` only
    grows as r_min shrinks, and float division, max and min are monotone).
    A center whose pull bound exceeds the skip threshold at that slack
    would be skipped by the exact test too, so it is skipped without a
    ``Rays``.  Every other center builds its cached ``Rays``, shared with
    the Weber search, the safe-point test and the class-A election, and
    runs the exact test on the same doubles in the same order; directions
    are computed only for the centers that pass it.
    A bound walks the cells near c and one far cell per far region, about
    O(log n) cells plus the robots of the nearby leaves on spread-out
    input, and the exact test costs O(n); only the centers that pass it
    run ``_structure``.  On generic configurations almost every center
    fails the pull bound, so the occupied-center search costs one bound per
    location plus O(n log n) per surviving center; without a tree it costs
    O(n^2) distance and vector terms.

    The Weber search that follows checks only the surviving centers as
    possible optimal vertices, in location order.  A skipped location has
    |P_c| > mu + 3*n^2*slack + n*1e-12, where slack >= 3e-15 (the widened
    slack is at least ``_COORD_DRIFT``, as r_min <= diameter), while the
    vertex test in ``weber_numeric`` accepts a pull of at most
    mu*(1+1e-12) < mu + n*1e-12, as mu <= n-2 in a non-linear
    configuration.  The margin is over 9e-15*n^2.  When every robot sits
    exactly on its location's point, the pull that ``weber_numeric`` sums
    over locations, each term times its multiplicity, is made of the same
    unit-vector terms as P_c, so the two differ only by the rounding of at
    most n terms of size at most 1: a few times n^2*1.1e-16, far inside the
    margin.  A skipped location therefore fails the vertex test too, and
    the first accepted vertex is the same.  The simulator keeps robots
    exact, as arrivals snap onto their destination; when some robot is off
    its location's point by a sliver within the merge slack, its direction
    from a nearby center can turn far more than the margin, so every
    location is checked.
    """
    if config.is_linear:
        raise LinearInput("quasi-regularity is defined for non-linear configurations")
    n = config.n
    points = config.points
    cells = config._cells
    survivors = []
    for k, loc in enumerate(config.locations):
        c = loc.location
        if cells is None:
            pull, r_min, _ = config._pair_sums[k]
        else:
            pull, r_min, _ = cells.bounds(c)
            if pull > loc.multiplicity + 3.0 * n * n * _direction_slack(config, r_min, _COORD_DRIFT) + n * 1e-12:
                continue
            cx, cy = c
            rays = Rays.of(config, c)
            row = rays.dists
            r_min = rays.r_min
            pull_x = pull_y = 0.0
            for i in rays.off:
                x, y = points[i]
                pull_x += (x - cx) / row[i]
                pull_y += (y - cy) / row[i]
            pull = math.hypot(pull_x, pull_y)
        slack = _direction_slack(config, r_min, _COORD_DRIFT)
        if pull > loc.multiplicity + 3.0 * n * n * slack + n * 1e-12:
            continue
        survivors.append(k)
        res = _structure(config, c, loc.multiplicity, slack)
        if res is not None:
            return res
    exact = all(points[i] == loc.location for loc in config.locations for i in loc.indices)
    vertices = survivors if exact else None
    candidate = weber_numeric(config, vertices)
    order = _unoccupied_order(config, candidate)
    if order < 2:
        return None
    return QRegularityResult(candidate, order, {})


def _unoccupied_order(config: Configuration, c: Point) -> int:
    """The regularity order of c as an unoccupied center; 0 at a location."""
    if config.find_location(c) is not None:
        return 0
    slack = _direction_slack(config, min(Rays.of(config, c).dists), _CANDIDATE_ERROR)
    return regularity_at(config, c, slack)


# --- Weber point ------------------------------------------------------------------

_REWEIGHT_STOP_REL = 1e-3
_VERTEX_PUSH_REL = 1e-10
_POLISH_STEP_REL = 1e-15
# a guard that never binds: reweighting to the stop took at most 134 passes
# (push-offs included) over sweep-small seeds 1, 2 and 13, sync-large seeds
# 1-2, classify-snapshots seeds 1-3, the acceptance sweep and the test inputs
_WEBER_MAX_ITER = 1000


def weber_numeric(config: Configuration, vertices: Sequence[int] | None = None) -> Point:
    """Geometric median: iterative reweighting plus a Newton polish.

    Non-linear configurations only, where the minimizer is unique.  Occupied
    locations are checked for optimality directly, so medians that sit on a
    robot are returned exactly.  ``vertices`` lists the indices into
    ``config.locations``, ascending, of the locations to check; the default
    is every location, and a caller may leave out only locations that
    provably fail the check (see ``detect_quasi_regular``).

    Reweighting (Weiszfeld's iteration) runs until a step is at most
    ``_REWEIGHT_STOP_REL`` times the diameter D; an iterate within
    ``_VERTEX_PUSH_REL`` * D of a location is pushed off it first.  The
    damped Newton steps of ``_newton_polish`` on the (there smooth)
    objective then converge quadratically to full float precision, also
    where reweighting alone would stall near an occupied location.
    """
    if config.is_linear:
        raise LinearInput("the Weber point of a linear configuration is not unique")
    locs = config.locations
    xs = [l.location.x for l in locs]
    ys = [l.location.y for l in locs]
    ms = [l.multiplicity for l in locs]
    diam = config.diameter
    tiny = _VERTEX_PUSH_REL * diam
    stop = _REWEIGHT_STOP_REL * diam

    for a in range(len(locs)) if vertices is None else vertices:
        gx, gy = _pull_vector(xs, ys, ms, a, _vertex_dists(config, a))
        if math.hypot(gx, gy) <= ms[a] * (1.0 + 1e-12):
            return locs[a].location

    sx = _plain_sum(x * m for x, m in zip(xs, ms))
    sy = _plain_sum(y * m for y, m in zip(ys, ms))
    yx = sx / config.n
    yy = sy / config.n
    for _ in range(_WEBER_MAX_ITER):
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
    return _newton_polish(xs, ys, ms, Point(yx, yy), diam)


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

