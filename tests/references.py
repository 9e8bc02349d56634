"""Earlier, slower forms of classification routines, kept as exact oracles.

Each function below is a routine as it stood before a faster form replaced
it: the full n x n distance table behind the diameter, the farthest pair
and the location merge; the merge's union-find over the distinct points,
run whatever their x gaps; fresh ``dist`` calls, every location checked and
every candidate tested in the Weber search, the safe points and the
election; the diameter's loop over every pair of hull candidates;
quasi-regularity detection that converges every Weber candidate and runs
every order at its center; a rescan of every robot at every successor
step and at every class-M blocked test; ray clustering with a dict of
shifted values; the greedy lookahead that moves and measures every
candidate afresh; and the trace writer that builds a dict per record.  The
current code must return the same doubles, bit for bit, so comparisons use
``bits``.

The string of angles and its periodicity are the paper's definition of a
regular configuration, kept here as the oracle that the structure test of
``symmetry.regularity_at`` is checked against.
"""

from __future__ import annotations

import math
from array import array
from functools import reduce
from operator import add

from gathersim import LocationSummary, Point, geometry, symmetry
from gathersim.errors import DegenerateCenter
from gathersim.geometry import TAU, angle_cw, ccw_angle_of, dist, on_open_segment, wrap_near_zero
from gathersim.simulator import _move_toward, dumps_17g
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


def farthest_pairs_reference(hull):
    """``configuration._farthest_pairs`` as the loop over every pair of
    candidates, in candidate order."""
    hypot = math.hypot
    best = 0.0
    pairs = []
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


def linear_endpoints_reference(config) -> tuple[Point, Point]:
    """The first location pair at the maximum over every pair, in (x, y) order."""
    a, b, _ = farthest_pair(config.occupied_points())
    return (a, b) if a <= b else (b, a)


def locations_table_reference(config) -> list[tuple[tuple[str, str], int, list[int]]]:
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


def locations_reference(config) -> list[LocationSummary]:
    """``Configuration.locations`` as union-find over the distinct points,
    whatever their x gaps: each point is linked to every earlier point
    within the x window of twice the merge slack that passes the exact
    ``hypot(...) <= slack`` test."""
    slack = config.merge_slack
    window = 2.0 * slack
    hypot = math.hypot
    stacks, pts = config._distinct
    parent = {p: p for p in pts}

    def find(p):
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
    groups = {}
    for p, idx in stacks.items():
        groups.setdefault(find(p), []).extend(idx)
    return [LocationSummary(config.points[idx[0]], len(idx), idx) for idx in map(sorted, groups.values())]


def location_dists_reference(config) -> list[list[str]]:
    """Each location's table row, as hex strings."""
    table = distance_table(config)
    return [[d.hex() for d in table[idx[0]]] for _, _, idx in locations_table_reference(config)]


# --- Weber search -------------------------------------------------------------------
#
# Every location is checked as an optimal vertex with fresh distances, and
# each reweighting iteration scans all locations for a nearby vertex before
# its weight pass.  Reweighting stops at the search's own rule, a step of at
# most ``_REWEIGHT_STOP_REL`` times the diameter, and the polish finishes.


def weber_reference(config) -> Point:
    locs = config.locations
    diam = config.diameter
    tiny = symmetry._VERTEX_PUSH_REL * diam
    stop = symmetry._REWEIGHT_STOP_REL * diam
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
        if step <= stop:
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


# --- quasi-regularity detection ----------------------------------------------------
#
# The occupied centers are searched as ``detect_quasi_regular`` does; the
# unoccupied candidate is the one Weber search's point, here the reference
# search's (``weber_numeric`` returns the same doubles for every vertex list
# the detection hands it), tested at a location and then by
# ``_deficits_for`` at every order with no robot on it.


def structure_reference(config, c, multiplicity, slack):
    """``symmetry._structure`` without its prunes: ``_deficits_for`` at
    every order from n down, on the rays of the robots off c."""
    off = [i for i, p in enumerate(config.points) if dist(p, c) > config.merge_slack]
    dirs = symmetry._ray_clusters(config, c, off, slack)
    for m in range(config.n, 1, -1):
        res = symmetry._deficits_for(dirs, multiplicity, m, slack, c)
        if res is not None:
            return res
    return None


def detect_quasi_regular_reference(config):
    n = config.n
    points = config.points
    cells = config._cells
    slack_of = symmetry._direction_slack
    for loc in config.locations:
        c = loc.location
        if cells is not None:
            pull, r_min, _ = cells.bounds(c)
            if pull > loc.multiplicity + 3.0 * n * n * slack_of(config, r_min, symmetry._COORD_DRIFT) + n * 1e-12:
                continue
        rays = symmetry.Rays.of(config, c)
        row, off = rays.dists, rays.off
        slack = slack_of(config, rays.r_min, symmetry._COORD_DRIFT)
        pull_x = pull_y = 0.0
        for i in off:
            x, y = points[i]
            pull_x += (x - c.x) / row[i]
            pull_y += (y - c.y) / row[i]
        if math.hypot(pull_x, pull_y) > loc.multiplicity + 3.0 * n * n * slack + n * 1e-12:
            continue
        dirs = symmetry._ray_clusters(config, c, off, slack)
        index = symmetry._RayIndex([theta for theta, _ in dirs])
        for m in range(n, 1, -1):
            if symmetry._orbit_lower_bound(len(dirs), len(off), m) > loc.multiplicity:
                continue
            if symmetry._partnerless_rays_exceed(index, m, slack, loc.multiplicity):
                continue
            res = symmetry._deficits_for(dirs, loc.multiplicity, m, slack, c)
            if res is not None:
                return res
    candidate = weber_reference(config)
    if config.find_location(candidate) is not None:
        return None
    slack = slack_of(config, min(symmetry.Rays.of(config, candidate).dists), symmetry._CANDIDATE_ERROR)
    return structure_reference(config, candidate, 0, slack)


def qr_bits(res):
    """A detection result as exact bits: center, order and deficits in order."""
    if res is None:
        return None
    return bits(res.center), res.m, [(theta.hex(), count) for theta, count in res.deficits.items()]


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


# --- symmetricity ----------------------------------------------------------------------
#
# Occupied locations partitioned by pairwise view comparison, O(n^3): each
# location joins the first class whose first view it equals within the
# tolerances, and sym is the size of the largest class.


def views_equal(a, b, tol_len: float = 1e-9, tol_angle: float = 1e-9) -> bool:
    if len(a.encoding) != len(b.encoding):
        return False
    for (aa, ar, am), (ba, br, bm) in zip(a.encoding, b.encoding):
        if am != bm or abs(aa - ba) > tol_angle or abs(ar - br) > tol_len:
            return False
    return True


def symmetricity_reference(config) -> tuple[int, list[list[Point]]]:
    """(sym, the classes of equal views as location points)."""
    locs = config.locations
    vs = [symmetry.view(config, l.location) for l in locs]
    classes: list[list[int]] = []
    for i in range(len(locs)):
        for cls in classes:
            if views_equal(vs[i], vs[cls[0]], config.tol.eps_len, config.tol.eps_angle):
                cls.append(i)
                break
        else:
            classes.append([i])
    groups = [[locs[i].location for i in cls] for cls in classes]
    return max(len(g) for g in groups), groups


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


def string_of_angles(config, i, c, angle_slack=None) -> tuple[float, ...]:
    """Hop angles of the full successor cycle around c, started at robot i.

    The string has one entry per robot not located at c; hops that stay on
    the same ray (co-located robots, moves inward) contribute angle zero.
    """
    ctx = CenterContext(config, c, angle_slack)
    if ctx.at_center[i]:
        raise DegenerateCenter(f"robot {i} sits on the center {c}")
    angles = []
    cur = i
    for _ in range(sum(1 for at in ctx.at_center if not at)):
        nxt = successor_step(ctx, cur)
        hop = wrap_near_zero((ctx.angs[cur] - ctx.angs[nxt]) % TAU, ctx.slack)
        angles.append(0.0 if abs(hop) <= ctx.slack else hop)
        cur = nxt
    return tuple(angles)


def periodicity(angles, eps_angle: float = 1e-9) -> int:
    """Greatest k dividing the string's length such that the string is the
    k-fold repeat of a block."""
    m = len(angles)
    if m == 0:
        raise ValueError("periodicity of an empty string")
    for k in range(m, 1, -1):
        if m % k:
            continue
        block = m // k
        if all(abs(angles[j] - angles[j % block]) <= eps_angle for j in range(block, m)):
            return k
    return 1


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


def blocked_reference(config, r, elected) -> bool:
    """``gathering._blocked`` as the filtered scan over every robot."""
    ex, ey = elected
    bx = r.x - ex
    by = r.y - ey
    nb = bx * bx + by * by
    margin = 1e-14 * config.diameter * config.diameter
    cross_bound = config.merge_slack * math.hypot(bx, by) * (1.0 + 1e-12) + margin
    for q in config.points:
        ax = q.x - ex
        ay = q.y - ey
        dot = ax * bx + ay * by
        if (
            -margin < dot < nb + margin
            and abs(ax * by - ay * bx) <= cross_bound
            and q != r
            and q != elected
            and on_open_segment(q, r, elected, config.tol)
        ):
            return True
    return False


# --- simulator -----------------------------------------------------------------------
#
# The greedy lookahead copied the points for every candidate, moved its
# robots again and measured the moved live robots with O(n^2) ``dist``
# calls, O(n^3) per round.  A trace line was a dict per record, written by
# ``dumps_17g``.


def max_multiplicity(points, slack: float) -> int:
    best = 0
    for i, p in enumerate(points):
        count = sum(1 for q in points if dist(p, q) <= slack)
        best = max(best, count)
    return best


def spread(points) -> float:
    total = 0.0
    for i, p in enumerate(points):
        for q in points[i + 1:]:
            total += dist(p, q)
    return total


def greedy_keys_reference(state, params, forced, live, decisions) -> list[tuple[tuple, tuple]]:
    """(metric, sorted candidate) of every candidate, in candidate order."""
    candidates = [frozenset(forced)]
    candidates += [frozenset(forced | {i}) for i in live if i not in forced]
    keys = []
    for cand in candidates:
        pts = list(state.config.points)
        for i in sorted(cand):
            pts[i] = _move_toward(pts[i], decisions[i].destination, params.delta, "minimal", None)
        live_pts = [pts[i] for i in live]
        metric = (max_multiplicity(live_pts, state.config.merge_slack), -spread(live_pts))
        keys.append((metric, tuple(sorted(cand))))
    return keys


def greedy_activation_reference(state, params, forced, live, decisions) -> set[int]:
    return set(min(greedy_keys_reference(state, params, forced, live, decisions))[1])


def to_obj(record) -> dict:
    return {
        "round": record.round,
        "class": record.cls,
        "positions": [[p.x, p.y] for p in record.positions],
        "crashed": list(record.crashed),
        "activated": list(record.activated),
        "decisions": [
            {"robot": robot, "rule": rule, "dest": [dest.x, dest.y]}
            for robot, rule, dest in record.decisions
        ],
        "stops": [[p.x, p.y] for p in record.stops],
        "gathered": record.gathered,
    }


def trace_lines_reference(records) -> str:
    return "".join(dumps_17g(to_obj(record)) + "\n" for record in records)
