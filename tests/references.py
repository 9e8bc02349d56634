"""Earlier, slower forms of classification routines, kept as exact oracles.

Each function below is a routine as it stood before a faster form replaced
it: the full n x n distance table behind the diameter, the farthest pair
and the location merge; fresh ``dist`` calls, every location checked and
every candidate tested in the Weber search, the safe points and the
election; a rescan of every robot at every successor step; and ray
clustering with a dict of shifted values.  The current code must return
the same doubles, bit for bit, so comparisons use ``bits``.
"""

from __future__ import annotations

import math
from array import array
from functools import reduce
from operator import add
from unittest import mock

from gathersim import Point, geometry, symmetry
from gathersim.configuration import _assert_asymmetric
from gathersim.errors import DegenerateCenter
from gathersim.geometry import TAU, angle_cw, ccw_angle_of, dist, wrap_near_zero
from helpers import farthest_pair


def bits(p) -> tuple[str, str]:
    """Exact identity of a point's coordinates, signed zeros included."""
    return (float(p[0]).hex(), float(p[1]).hex())


def left_sum(values) -> float:
    """Floats added left to right, as the builtin ``sum`` did before Python 3.12."""
    return reduce(add, values, 0.0)


def outcome(fn, config):
    """``fn(config)`` as exact bits, or the message of the RuntimeError it raised."""
    try:
        return bits(fn(config))
    except RuntimeError as exc:
        return str(exc)


def screen_skips(config) -> bool:
    """True when ``_assert_asymmetric`` returns without running ``symmetricity``."""
    with mock.patch.object(symmetry, "symmetricity", wraps=symmetry.symmetricity) as spy:
        try:
            _assert_asymmetric(config)
        except RuntimeError:
            pass
    return not spy.called


# --- location layer ------------------------------------------------------------------
#
# One table of every pairwise distance; the diameter is its maximum, the
# farthest pair its lexicographically first maximum, and locations come from
# union-find over every pair within the merge slack.  The linear endpoints
# are the first maximum over every pair of locations.


def distance_table(config) -> list[array]:
    hypot = math.hypot
    points = config.points
    return [array("d", [hypot(px - x, py - y) for x, y in points]) for px, py in points]


def diameter_reference(config) -> float:
    return max(map(max, distance_table(config)))


def farthest_pair_reference(config):
    table = distance_table(config)
    diameter = max(map(max, table))
    i, row = next((i, row) for i, row in enumerate(table) if diameter in row)
    return config.points[i], config.points[row.index(diameter)]


def linear_endpoints_reference(config) -> tuple[Point, Point]:
    """The first location pair at the maximum over every pair, in (x, y) order."""
    a, b, _ = farthest_pair(config.occupied_points())
    return (a, b) if a <= b else (b, a)


def locations_reference(config) -> list[tuple[tuple[str, str], int, list[int]]]:
    """(location bits, multiplicity, indices) of every location, in order."""
    slack = config.merge_slack
    n = config.n
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, row in enumerate(distance_table(config)):
        for j in range(i + 1, n):
            if row[j] <= slack:
                parent[find(j)] = find(i)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    out = []
    for root in sorted(groups, key=lambda r: min(groups[r])):
        idx = sorted(groups[root])
        out.append((bits(config.points[idx[0]]), len(idx), idx))
    return out


def location_dists_reference(config) -> list[list[str]]:
    """Each location's table row, as hex strings."""
    table = distance_table(config)
    return [[d.hex() for d in table[idx[0]]] for _, _, idx in locations_reference(config)]


# --- Weber search -------------------------------------------------------------------
#
# Every location is checked as an optimal vertex with fresh distances, and
# each reweighting iteration scans all locations for a nearby vertex before
# its weight pass.


def weber_reference(config) -> Point:
    locs = config.locations
    diam = config.diameter
    tiny = symmetry._WEBER_STEP_REL * diam
    for l in locs:
        gx, gy = _pull_vector(locs, l)
        if math.hypot(gx, gy) <= l.multiplicity * (1.0 + 1e-12):
            return l.location
    sx = left_sum(l.location.x * l.multiplicity for l in locs)
    sy = left_sum(l.location.y * l.multiplicity for l in locs)
    y = Point(sx / config.n, sy / config.n)
    for _ in range(symmetry._WEBER_MAX_ITER):
        near = next((l for l in locs if dist(l.location, y) <= tiny), None)
        if near is not None:
            y = _push_off_vertex(locs, near)
            continue
        wx = wy = wsum = 0.0
        for l in locs:
            w = l.multiplicity / dist(l.location, y)
            wx += w * l.location.x
            wy += w * l.location.y
            wsum += w
        y_new = Point(wx / wsum, wy / wsum)
        step = dist(y_new, y)
        y = y_new
        if step <= tiny:
            break
    return _newton_polish(locs, y, diam)


def _gradient(locs, y):
    gx = gy = 0.0
    for l in locs:
        d = dist(l.location, y)
        if d == 0.0:
            return math.inf, math.inf, math.inf
        gx += l.multiplicity * (y.x - l.location.x) / d
        gy += l.multiplicity * (y.y - l.location.y) / d
    return gx, gy, math.hypot(gx, gy)


def _newton_polish(locs, y, diam):
    for _ in range(60):
        gx = gy = 0.0
        hxx = hxy = hyy = 0.0
        for l in locs:
            dx = y.x - l.location.x
            dy = y.y - l.location.y
            d = math.hypot(dx, dy)
            if d <= 1e-17 * diam:
                return y
            ux = dx / d
            uy = dy / d
            gx += l.multiplicity * ux
            gy += l.multiplicity * uy
            curve = l.multiplicity / d
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
        while t > 1e-6:
            candidate = Point(y.x - t * sx, y.y - t * sy)
            if _gradient(locs, candidate)[2] < gnorm:
                break
            t *= 0.5
        else:
            return y
        step = t * math.hypot(sx, sy)
        y = candidate
        if step <= symmetry._POLISH_STEP_REL * diam:
            return y
    return y


def _pull_vector(locs, at):
    gx = gy = 0.0
    for l in locs:
        if l is at:
            continue
        d = dist(l.location, at.location)
        gx += l.multiplicity * (l.location.x - at.location.x) / d
        gy += l.multiplicity * (l.location.y - at.location.y) / d
    return gx, gy


def _push_off_vertex(locs, at):
    gx, gy = _pull_vector(locs, at)
    norm = math.hypot(gx, gy)
    damping = left_sum(l.multiplicity / dist(l.location, at.location) for l in locs if l is not at)
    t = (norm - at.multiplicity) / damping
    return Point(at.location.x + t * gx / norm, at.location.y + t * gy / norm)


# --- safe points and the class-A election --------------------------------------------
#
# Every location is tested for safety first, by sorting and chaining the
# directions of the robots off it; the election then picks among the safe
# points.


def _max_ray_count(origin: Point, others: list[Point], eps_angle: float) -> int:
    if not others:
        return 0
    angles = sorted(geometry.ccw_angle_of(p, origin) % geometry.TAU for p in others)
    counts = []
    current = 1
    for prev, cur in zip(angles, angles[1:]):
        if cur - prev <= eps_angle:
            current += 1
        else:
            counts.append(current)
            current = 1
    counts.append(current)
    # circular wrap: first and last bucket may be the same ray
    if len(counts) > 1 and (angles[0] + geometry.TAU - angles[-1]) <= eps_angle:
        counts[0] += counts.pop()
    return max(counts)


def safe_points_reference(config) -> list[Point]:
    limit = (config.n + 1) // 2 - 1
    out = []
    for loc in config.locations:
        others = [p for p in config.points if dist(loc.location, p) > config.merge_slack]
        if _max_ray_count(loc.location, others, config.tol.eps_angle) <= limit:
            out.append(loc.location)
    return out


def elect_reference(config) -> Point:
    """The elected safe point; raises RuntimeError when there is none."""
    safe = safe_points_reference(config)
    if not safe:
        raise RuntimeError("non-linear configuration without a safe point")
    mult = {loc.location: loc.multiplicity for loc in config.locations}
    best_mult = max(mult[p] for p in safe)
    cands = [p for p in safe if mult[p] == best_mult]
    totals = {p: left_sum(dist(p, q) for q in config.points) for p in cands}
    lowest = min(totals.values())
    tied = [p for p in cands if totals[p] <= lowest + config.merge_slack]
    if len(tied) == 1:
        return tied[0]
    return max(tied, key=lambda p: symmetry.view(config, p).encoding)


# --- asymmetry screen ------------------------------------------------------------------


def screen_reference(config) -> bool:
    """True when every (multiplicity, rounded distance multiset) signature is
    distinct, so ``_assert_asymmetric`` may skip ``symmetricity``."""
    diameter = config.diameter
    sigs = set()
    for loc in config.locations:
        row = [dist(loc.location, q) for q in config.points]
        sig = (loc.multiplicity, tuple(sorted(round(d / diameter, 9) for d in row)))
        if sig in sigs:
            return False
        sigs.add(sig)
    return True


# --- ray clustering --------------------------------------------------------------------
#
# A lambda sort key, a dict of the values shifted across zero, and a sort of
# the cluster means.


def circular_clusters_reference(values, slack, modulus):
    if not values:
        return []
    order = sorted(range(len(values)), key=lambda k: values[k])
    groups: list[list[int]] = [[order[0]]]
    for k in order[1:]:
        if values[k] - values[groups[-1][-1]] <= slack:
            groups[-1].append(k)
        else:
            groups.append([k])
    shifted: dict[int, float] = {}
    if len(groups) > 1 and values[groups[0][0]] + modulus - values[groups[-1][-1]] <= slack:
        for k in groups.pop():
            shifted[k] = values[k] - modulus
            groups[0].append(k)
    out = []
    for g in groups:
        mean = left_sum(shifted.get(k, values[k]) for k in g) / len(g)
        out.append((mean, sorted(g)))
    out.sort(key=lambda item: item[0])
    return out


# --- successor sweep --------------------------------------------------------------------
#
# A fresh per-center context for every call, and three scans over every robot
# at every step: co-located robots, the inward step and the clockwise jump.


class CenterContext:
    """Per-center geometry shared by successor steps."""

    def __init__(self, config, center, angle_slack):
        self.config = config
        self.center = center
        self.merge_slack = config.merge_slack
        self.dists = [dist(p, center) for p in config.points]
        self.at_center = [d <= self.merge_slack for d in self.dists]
        self.angs = [
            None if at else ccw_angle_of(p, center) % TAU
            for p, at in zip(config.points, self.at_center)
        ]
        if angle_slack is None:
            off = [d for d, at in zip(self.dists, self.at_center) if not at]
            angle_slack = symmetry._direction_slack(config, min(off) if off else 0.0, symmetry._COORD_DRIFT)
        self.slack = angle_slack

    def cw_from(self, i, k):
        delta = (self.angs[i] - self.angs[k]) % TAU
        return wrap_near_zero(delta, self.slack)


def _farthest_then_index(ctx, candidates):
    top = max(ctx.dists[k] for k in candidates)
    return max(k for k in candidates if ctx.dists[k] >= top - ctx.merge_slack)


def successor_step(ctx, i):
    pts = ctx.config.points
    p_i = pts[i]
    for k in range(i - 1, -1, -1):
        if not ctx.at_center[k] and dist(pts[k], p_i) <= ctx.merge_slack:
            return k
    inside = [
        k
        for k, at in enumerate(ctx.at_center)
        if not at
        and k != i
        and abs(ctx.cw_from(i, k)) <= ctx.slack
        and dist(pts[k], p_i) > ctx.merge_slack
        and ctx.dists[k] < ctx.dists[i]
    ]
    if inside:
        return _farthest_then_index(ctx, inside)
    min_pos = None
    for k, at in enumerate(ctx.at_center):
        if at:
            continue
        d = ctx.cw_from(i, k)
        if d > ctx.slack and (min_pos is None or d < min_pos):
            min_pos = d
    bucket = []
    for k, at in enumerate(ctx.at_center):
        if at:
            continue
        d = ctx.cw_from(i, k)
        if min_pos is None:
            if abs(d) <= ctx.slack:
                bucket.append(k)
        elif abs(d - min_pos) <= ctx.slack:
            bucket.append(k)
    assert bucket
    return _farthest_then_index(ctx, bucket)


def successor_reference(config, i, c, angle_slack=None):
    ctx = CenterContext(config, c, angle_slack)
    if ctx.at_center[i]:
        raise DegenerateCenter(f"robot {i} sits on the center {c}")
    return successor_step(ctx, i)


def string_of_angles_reference(config, i, c, angle_slack=None) -> list[str]:
    """The hop angles of the sweep, as hex strings."""
    ctx = CenterContext(config, c, angle_slack)
    if ctx.at_center[i]:
        raise DegenerateCenter(f"robot {i} sits on the center {c}")
    angles = []
    cur = i
    for _ in range(sum(1 for at in ctx.at_center if not at)):
        nxt = successor_step(ctx, cur)
        hop = wrap_near_zero((ctx.angs[cur] - ctx.angs[nxt]) % TAU, ctx.slack)
        angles.append((0.0 if abs(hop) <= ctx.slack else hop).hex())
        cur = nxt
    return angles


def _same_ray(config, center, a, b) -> bool:
    if dist(a, b) <= config.merge_slack:
        return True
    theta = angle_cw(a, center, b, config.tol)
    return theta <= config.tol.eps_angle or theta >= TAU - config.tol.eps_angle


def sidestep_angle_reference(config, self_index, elected) -> float:
    """The side-step angle with the off-ray robots counted before the sweep."""
    r = config.points[self_index]
    off_ray_count = sum(
        1 for q in config.points if dist(q, elected) > config.merge_slack and not _same_ray(config, elected, r, q)
    )
    cur = self_index
    for _ in range(config.n - config.multiplicity_at(elected)):
        cur = successor_reference(config, cur, elected)
        q = config.points[cur]
        if not _same_ray(config, elected, r, q):
            return angle_cw(r, elected, q, config.tol)
    if off_ray_count:
        raise RuntimeError("successor sweep missed every off-ray robot")
    return TAU

