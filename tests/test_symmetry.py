import dataclasses
import gc
import json
import math
import random
import types
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from gathersim import (
    Configuration,
    Point,
    classify,
    compute,
    configuration,
    detect_quasi_regular,
    gathering,
    geometry,
    regularity_at,
    successor,
    symmetricity,
    symmetry,
    view,
    weber_numeric,
)
from gathersim.configuration import (
    TAG_ASYMMETRIC,
    TAG_MULTIPLE,
    TAG_QREGULAR,
    _elect_safe_point,
    safe_points,
)
from gathersim.errors import (
    AllAtCenter,
    DegenerateCenter,
    LinearInput,
    NotOccupied,
)
from gathersim.generators import (
    bivalent_configuration,
    broken_quasi_regular,
    collinear_configuration,
    construct_quasi_regular,
    multiplicity_configuration,
    symmetric_configuration,
    uniform_configuration,
)
from gathersim.geometry import TAU, Tolerance, _plain_sum, dist
from helpers import Similarity, deficits_at, frame_point, grid_weber, mixed_configuration, occupied_points, on_ray
from gathersim.simulator import LocalFrame
from references import (
    CenterContext,
    bits,
    circular_clusters_reference,
    detect_quasi_regular_reference,
    elect_reference,
    left_sum,
    outcome,
    periodicity,
    qr_bits,
    safe_points_reference,
    string_of_angles,
    structure_reference,
    successor_reference,
    symmetricity_reference,
    symmetricity_unpruned,
    views_equal,
    weber_reference,
)

SQUARE = Configuration([(1, 1), (-1, 1), (-1, -1), (1, -1)])
ASYM4 = Configuration([(0, 0), (3, 0), (0, 4), (1, 1)])


def pentagon(center=Point(0, 0), radius=1.0, extra_center=False):
    pts = [
        Point(center.x + radius * math.cos(k * TAU / 5), center.y + radius * math.sin(k * TAU / 5))
        for k in range(5)
    ]
    if extra_center:
        pts.append(center)
    return Configuration(pts)


# --- views -------------------------------------------------------------------------


def test_view_square_corners_equal():
    views = [view(SQUARE, p) for p in SQUARE.points]
    assert all(views_equal(views[0], v) for v in views[1:])


def test_view_asym_distinct():
    views = [view(ASYM4, p) for p in ASYM4.points]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not views_equal(views[i], views[j])


def test_view_similarity_invariance():
    rng = random.Random(11)
    for _ in range(40):
        config = mixed_configuration(rng, rng.randint(2, 9))
        sim = Similarity.random(rng)
        image = sim.apply_config(config)
        for loc in config.locations:
            v1 = view(config, loc.location)
            v2 = view(image, sim(loc.location))
            assert views_equal(v1, v2), (config, sim.theta, sim.scale)


def test_view_not_occupied():
    with pytest.raises(NotOccupied):
        view(SQUARE, Point(0.5, 0.5))


def test_views_order_within_the_tolerances():
    # entries within eps_angle or eps_len of each other tie, and the
    # earliest of tied encodings stays the maximum; beyond them they decide
    base = ((0.0, 0.0, 1), (1.0, 0.5, 2))
    noisy = ((1e-12, 0.0, 1), (1.0 - 1e-12, 0.5 + 1e-12, 2))
    assert symmetry._greatest([base, noisy], SQUARE) == 0
    assert symmetry._greatest([noisy, base], SQUARE) == 0
    assert symmetry._greatest([base, noisy, ((0.0, 0.0, 1), (1.0, 0.5, 3))], SQUARE) == 2
    assert symmetry._greatest([base, ((-1e-6, 0.0, 1), (1.0, 0.5, 2))], SQUARE) == 0
    assert symmetry._greatest([base, ((0.0, 0.0, 1), (1.0, 0.5 + 1e-6, 2))], SQUARE) == 1
    # the corners of a turned square have equal views up to rounding: the
    # first point given wins, in either order
    rng = random.Random(4)
    for _ in range(20):
        square = Similarity.random(rng).apply_config(SQUARE)
        points = occupied_points(square)
        assert symmetry.greatest_view(square, points) == points[0]
        assert symmetry.greatest_view(square, points[::-1]) == points[-1]


# --- symmetricity ------------------------------------------------------------------


def test_symmetricity_examples():
    assert symmetricity(SQUARE) == 4
    assert symmetricity(ASYM4) == 1
    assert symmetricity(pentagon(extra_center=True)) == 5


def _rotation_maps_robots(config, k):
    """Brute force: rotating by 2*pi/k about the centroid sends the robots
    off it onto themselves, as many within 1e-9 D of each location as
    there were (robots within the merge slack of the centroid left out)."""
    n = config.n
    g = Point(sum(p.x for p in config.points) / n, sum(p.y for p in config.points) / n)
    tol = 1e-9 * config.diameter
    off = [p for p in config.points if dist(p, g) > config.merge_slack]
    images = [on_ray(g, math.atan2(p.y - g.y, p.x - g.x) + TAU / k, dist(p, g)) for p in off]
    return all(
        sum(dist(q, loc.location) <= tol for q in images) == sum(dist(q, loc.location) <= tol for q in off)
        for loc in config.locations
    )


def test_symmetricity_partitions_locations():
    # the order is the size of the largest class of equal views; rotating
    # by 2*pi/order about the centroid maps the robots onto themselves, and
    # no larger order does
    rng = random.Random(12)
    for _ in range(40):
        config = mixed_configuration(rng, rng.randint(1, 10))
        order = symmetricity(config)
        sym, classes = symmetricity_reference(config)
        assert len([p for group in classes for p in group]) == len(config.locations)
        assert order == sym, config
        assert order == 1 or _rotation_maps_robots(config, order), config
        assert not any(_rotation_maps_robots(config, k) for k in range(order + 1, config.n + 1)), config


def test_kgon_property():
    rng = random.Random(13)
    for _ in range(40):
        k = rng.randint(2, 6)
        config = symmetric_configuration(rng, k=k, orbits=rng.randint(1, 2))
        order = symmetricity(config)
        assert order % k == 0, (config, k, order)
        assert _rotation_maps_robots(config, order), config


# --- successor and string of angles -------------------------------------------------


def test_successor_examples():
    c = Point(0, 0)
    assert successor(Configuration([(1, 0), (0, 1), (-1, 0)]), 0, c) == 2
    assert successor(Configuration([(4, 0), (8, 0)]), 1, c) == 0
    assert successor(Configuration([(2, 0), (2, 0)]), 1, c) == 0


def test_successor_degenerate_center():
    with pytest.raises(DegenerateCenter):
        successor(Configuration([(0, 0), (1, 0)]), 0, Point(0, 0))


def test_successor_cycle_visits_all_off_center_robots():
    rng = random.Random(14)
    for _ in range(40):
        config = mixed_configuration(rng, rng.randint(2, 10))
        center = config.locations[rng.randrange(len(config.locations))].location
        off = [
            i for i, p in enumerate(config.points) if dist(p, center) > config.merge_slack
        ]
        if not off:
            continue
        seen = []
        cur = off[0]
        for _ in range(len(off)):
            cur = successor(config, cur, center)
            seen.append(cur)
        assert sorted(seen) == off


def test_successor_cycle_with_rounding_noise():
    # co-located robots whose coordinates differ by an ulp (as after a frame
    # change) must still be swept as one location, keeping the cycle intact
    rng = random.Random(99)
    base = Configuration(
        [(1.0, 0.0), (1.0, 0.0), (0.5, 0.0), (-1.0, 1.0), (-1.0, 1.0), (0.0, -1.3)]
    )
    for _ in range(20):
        pts = [
            Point(p.x * (1 + rng.choice([0, 1e-16, -1e-16])), p.y + rng.choice([0, 1e-16, -1e-16]))
            for p in base.points
        ]
        config = Configuration(pts)
        center = Point(1e-16, -1e-16)
        seen = []
        cur = 0
        for _ in range(config.n):
            cur = successor(config, cur, center)
            seen.append(cur)
        assert sorted(seen) == list(range(config.n))


def test_string_of_angles_examples():
    c = Point(0, 0)
    sa = string_of_angles(SQUARE, 0, c)
    assert sa == pytest.approx([math.pi / 2] * 4)

    sa = string_of_angles(Configuration([(1, 0), (0, 1), (-1, 0)]), 0, c)
    assert sa == pytest.approx([math.pi, math.pi / 2, math.pi / 2])

    # two co-located east, one west: a zero hop plus two half turns
    sa = string_of_angles(Configuration([(2, 0), (2, 0), (-2, 0)]), 0, c)
    assert sorted(sa) == pytest.approx([0.0, math.pi, math.pi])

    # two co-located east, one south: zero hop, quarter and three-quarter turns
    sa = string_of_angles(Configuration([(2, 0), (2, 0), (0, -2)]), 0, c)
    assert sorted(sa) == pytest.approx([0.0, math.pi / 2, 3 * math.pi / 2])


def test_string_length_is_off_center_count():
    rng = random.Random(15)
    for _ in range(30):
        config = mixed_configuration(rng, rng.randint(2, 10))
        loc = config.locations[0]
        off = config.n - sum(
            l.multiplicity for l in config.locations if dist(l.location, loc.location) <= config.merge_slack
        )
        if off == 0:
            continue
        start = next(
            i for i, p in enumerate(config.points) if dist(p, loc.location) > config.merge_slack
        )
        sa = string_of_angles(config, start, loc.location)
        assert len(sa) == off
        if len({round(a, 6) for a in sa} - {0.0}) > 1 or (sa and max(sa) > 1e-6):
            assert sum(sa) == pytest.approx(TAU, abs=1e-6)


def test_periodicity_examples():
    assert periodicity([math.pi / 2] * 4) == 4
    assert periodicity([math.pi, math.pi / 2, math.pi / 2]) == 1
    assert periodicity([math.pi / 3, 2 * math.pi / 3, math.pi / 3, 2 * math.pi / 3]) == 2


def test_periodicity_rotation_invariant():
    rng = random.Random(16)
    for _ in range(60):
        m = rng.randint(1, 4)
        block = [rng.uniform(0.1, 1.0) for _ in range(rng.randint(1, 4))]
        angles = block * m
        base = periodicity(angles)
        for shift in range(1, len(angles)):
            assert periodicity(angles[shift:] + angles[:shift]) == base


# --- regularity ----------------------------------------------------------------------


def test_regularity_examples():
    assert regularity_at(SQUARE, Point(0, 0)) == 4
    contracted = Configuration([(1, 0), (0, -2), (-1, 0), (0, 2)])
    assert regularity_at(contracted, Point(0, 0)) == 4
    for p in ASYM4.points:
        others = [q for q in ASYM4.points if q != p]
        assert regularity_at(ASYM4, p) == 1
    with pytest.raises(AllAtCenter):
        regularity_at(Configuration([(1, 1), (1, 1)]), Point(1, 1))


# --- quasi-regularity ----------------------------------------------------------------


def test_qregular_test_examples():
    config = Configuration([(0, 0), (0, 0), (1, 0), (0, -1)])
    res = deficits_at(config, Point(0, 0), 2)
    assert res is not None
    assert res.center == Point(0, 0)
    deficits = {round(math.degrees(a)) % 360: d for a, d in res.deficits.items()}
    assert deficits == {180: 1, 90: 1}

    assert deficits_at(Configuration([(0, 0), (1, 0), (0, -1)]), Point(0, 0), 2) is None
    assert deficits_at(SQUARE, Point(1, 1), 2) is None


def test_detect_quasi_regular_examples():
    res = detect_quasi_regular(SQUARE)
    assert res is not None
    assert res.center == pytest.approx((0, 0), abs=1e-9)
    assert res.m == 4
    assert res.deficits == {}

    res = detect_quasi_regular(Configuration([(0, 0), (0, 0), (1, 0), (0, -1)]))
    assert res is not None
    assert res.center == Point(0, 0)
    assert res.m >= 2

    assert detect_quasi_regular(ASYM4) is None
    with pytest.raises(LinearInput):
        detect_quasi_regular(Configuration([(0, 0), (1, 0), (2, 0)]))


def test_symmetricity_matches_view_partition():
    # the rotation order equals the size of the largest class of equal
    # views on 1,000 configurations from every generator
    rng = random.Random(19)
    generators = {
        "mixed": lambda: mixed_configuration(rng, rng.randint(1, 10)),
        "symmetric": lambda: symmetric_configuration(rng, with_center=False),
        "symmetric with center": lambda: symmetric_configuration(rng, with_center=True),
        "quasi-regular": lambda: construct_quasi_regular(rng).config,
        "multiplicity": lambda: multiplicity_configuration(rng, rng.randint(2, 10)),
        "collinear": lambda: collinear_configuration(rng, rng.randint(2, 10)),
        "bivalent": lambda: bivalent_configuration(rng, 2 * rng.randint(1, 5)),
    }
    for name, generate in generators.items():
        orders = set()
        for _ in range(1000):
            config = generate()
            order = symmetricity(config)
            assert order == symmetricity_reference(config)[0], (name, config)
            orders.add(order)
        assert len(orders) > 1 or name in ("quasi-regular", "bivalent"), (name, orders)


def test_symmetricity_rejects_each_order_on_the_first_robot(monkeypatch):
    # a regular 319-gon plus one robot, on a mirror axis of the polygon or
    # off it: one distance per robot from the center, then each order fails
    # on the robot nearest the center, which has at most one robot at its
    # own distance within the window
    calls = []
    counting = types.SimpleNamespace(**{name: getattr(math, name) for name in dir(math) if not name.startswith("_")})
    counting.hypot = lambda *args: calls.append(args) or math.hypot(*args)
    monkeypatch.setattr(symmetry, "math", counting)
    n = 320
    orders = sum(n % k == 0 for k in range(2, n + 1))
    for extra in (Point(0.3, 0.0), Point(0.3, 0.1)):
        config = Configuration([on_ray(Point(0, 0), j * TAU / (n - 1), 1.0) for j in range(n - 1)] + [extra])
        calls.clear()
        assert symmetricity(config) == 1
        assert len(calls) <= n + 4 * orders, len(calls)


def _innermost_variants(rng, k, with_center):
    """A k-gon of one or two orbits, with or without a robot on its center,
    then variants that move the robot nearest the center: by 0.5, 1 and 2
    of its order-k windows inward, outward and across its ray; onto the
    radius of a second robot placed opposite it; and a robot added at 1 to
    10 times the window floor from the center, with no merge slack beyond
    the resolution."""
    config = symmetric_configuration(rng, k=k, orbits=rng.randint(1, 2), with_center=with_center)
    yield config
    c = symmetry._center(config)
    pts = list(config.points)
    i = min((j for j, p in enumerate(pts) if dist(p, c) > config.merge_slack), key=lambda j: dist(pts[j], c))
    r = dist(pts[i], c)
    window = symmetry._ROTATION_WINDOW * config.tol.eps_angle / k * r + symmetry._ROTATION_FLOOR * config.resolution
    ux, uy = (pts[i].x - c.x) / r, (pts[i].y - c.y) / r
    for f in (0.5, 1.0, 2.0):
        for dx, dy in ((-ux, -uy), (ux, uy), (-uy, ux)):
            moved = pts[:]
            moved[i] = Point(pts[i].x + f * window * dx, pts[i].y + f * window * dy)
            yield Configuration(moved)
    yield Configuration(pts + [Point(2.0 * c.x - pts[i].x, 2.0 * c.y - pts[i].y)])
    floor = symmetry._ROTATION_FLOOR * config.resolution
    for t in range(1, 11):
        theta = rng.uniform(0, TAU)
        extra = Point(c.x + t * floor * math.cos(theta), c.y + t * floor * math.sin(theta))
        yield Configuration(pts + [extra], Tolerance(eps_len=0.0))


def test_symmetricity_on_the_innermost_robot_matches_every_robot():
    # testing each order on the innermost robot first, with one hypot when
    # no other robot lies in its band, gives the order of the test that
    # matches every robot, on k-gons for k = 2..24 and their variants
    rng = random.Random(23)
    orders = Counter()
    for k in range(2, 25):
        for with_center in (False, True):
            for config in _innermost_variants(rng, k, with_center):
                order = symmetricity(config)
                assert order == symmetricity_unpruned(config), (k, config)
                orders[order > 1] += 1
    assert orders[True] > 100 and orders[False] > 300, orders


def test_symmetricity_bounds_one_radius_orbits_by_direction(monkeypatch):
    # a regular 640-gon: each point's band of distances holds the whole
    # orbit, and the ring's index by direction leaves each ``near`` one
    # candidate, so the order costs one hypot per point for the ring and
    # two per ``near`` call (the query's distance and the candidate)
    # instead of 819,840 in all
    calls = []
    counting = types.SimpleNamespace(**{name: getattr(math, name) for name in dir(math) if not name.startswith("_")})
    counting.hypot = lambda *args: calls.append(args) or math.hypot(*args)
    monkeypatch.setattr(symmetry, "math", counting)
    n = 640
    config = Configuration([on_ray(Point(0.3, -0.2), j * TAU / n, 1.0) for j in range(n)])
    assert symmetricity(config) == n
    assert len(calls) == 3200


def test_symmetricity_by_direction_matches_every_robot():
    # one-radius orbits of 17 to 60 robots, more than a band searched
    # whole, and their variants: the order of the test without the index
    rng = random.Random(29)
    orders = Counter()
    for k in (17, 24, 33, 60):
        for with_center in (False, True):
            for config in _innermost_variants(rng, k, with_center):
                order = symmetricity(config)
                assert order == symmetricity_unpruned(config), (k, config)
                orders[order > 1] += 1
    assert orders[True] >= 8 and orders[False] >= 60, orders


def test_sym_implies_quasi_regular():
    rng = random.Random(17)
    for _ in range(30):
        config = symmetric_configuration(rng)
        order = symmetricity(config)
        if order <= 1 or config.is_linear:
            continue
        res = detect_quasi_regular(config)
        assert res is not None and res.m >= order


def test_qregular_matches_brute_force_construction():
    rng = random.Random(18)
    checked_success = checked_failure = 0
    for _ in range(120):
        if rng.random() < 0.6:
            config = construct_quasi_regular(rng).config
        else:
            config = mixed_configuration(rng, rng.randint(3, 10))
        if config.n > 10:
            continue
        for loc in config.locations:
            for m in range(2, config.n + 1):
                res = deficits_at(config, loc.location, m)
                expected = _brute_deficit(config, loc.location, m)
                if res is None:
                    assert expected is None or expected > loc.multiplicity
                    checked_failure += 1
                else:
                    assert expected is not None and expected <= loc.multiplicity
                    assert sum(res.deficits.values()) == expected
                    filled = _fill_deficits(config, res)
                    if not all(
                        dist(p, res.center) <= config.merge_slack for p in filled.points
                    ):
                        order = regularity_at(filled, res.center)
                        assert order % m == 0 or order >= m and order % m == 0
                        assert order % m == 0
                    checked_success += 1
    assert checked_success > 50 and checked_failure > 200


def _brute_deficit(config, center, m):
    """Independent deficit count from exact angle bucketing (test-side oracle)."""
    slack = config.merge_slack
    buckets: dict[int, int] = {}
    for p in config.points:
        if dist(p, center) <= slack:
            continue
        ang = math.atan2(p.y - center.y, p.x - center.x) % TAU
        key = round(ang, 7)
        buckets[key] = buckets.get(key, 0) + 1
    if not buckets:
        return 0
    step = TAU / m
    orbit_of: dict[float, int] = {}
    orbit_reps: list[float] = []
    for ang in sorted(buckets):
        residue = ang % step
        for rep in orbit_reps:
            if min(abs(residue - rep), step - abs(residue - rep)) < 1e-6:
                orbit_of[ang] = orbit_reps.index(rep)
                break
        else:
            orbit_of[ang] = len(orbit_reps)
            orbit_reps.append(residue)
    total = 0
    for orbit_id in range(len(orbit_reps)):
        counts = [buckets[a] for a in buckets if orbit_of[a] == orbit_id]
        if len(counts) > m:
            return None
        total += m * max(counts) - sum(counts)
    return total


def _fill_deficits(config, res):
    pts = list(config.points)
    center = res.center
    removed = 0
    keep = []
    need = sum(res.deficits.values())
    for p in pts:
        if dist(p, center) <= config.merge_slack and removed < need:
            removed += 1
            continue
        keep.append(p)
    assert removed == need
    radius = max((dist(p, center) for p in keep if dist(p, center) > config.merge_slack), default=1.0)
    for ang, count in res.deficits.items():
        for _ in range(count):
            keep.append(Point(center.x + radius * math.cos(ang), center.y + radius * math.sin(ang)))
    return Configuration(keep, config.tol)


def test_constructed_instances_detected():
    rng = random.Random(19)
    for _ in range(40):
        built = construct_quasi_regular(rng)
        res = detect_quasi_regular(built.config)
        assert res is not None
        assert dist(res.center, built.center) <= 1e-9 * built.config.diameter
        assert res.m >= built.m


def test_perturbed_instances_rejected():
    rng = random.Random(20)
    for _ in range(40):
        broken = broken_quasi_regular(rng)
        assert detect_quasi_regular(broken) is None


# --- pruned order search --------------------------------------------------------------
#
# ``_detect_reference`` is the unpruned loop: one full deficit test per
# (center, order) pair.  ``_regularity_reference`` is the paper's definition
# of a regular center: the periodicity of the string of angles, confirmed
# by a linear scan for every rotated ray.


def _rotation_reference(dirs, m, slack):
    window = 4.0 * slack
    step = TAU / m
    for theta, count in dirs:
        for k in range(1, m):
            target = (theta + k * step) % TAU
            if not any(
                min(abs(target - other), TAU - abs(target - other)) <= window and count == c2
                for other, c2 in dirs
            ):
                return False
    return True


def _regularity_reference(config, c, angle_slack):
    off = [i for i, p in enumerate(config.points) if dist(p, c) > config.merge_slack]
    dirs = symmetry._ray_clusters(config, c, off, angle_slack)
    if len(dirs) == 1:
        return 1
    per = periodicity(string_of_angles(config, off[0], c, angle_slack), angle_slack)
    for k in sorted((k for k in range(1, per + 1) if per % k == 0), reverse=True):
        if k == 1 or _rotation_reference(dirs, k, angle_slack):
            return k
    return 1


def _detect_reference(config):
    for loc in config.locations:
        res = structure_reference(config, loc.location, loc.multiplicity, _occupied_center(config, loc)[1])
        if res is not None:
            return res
    candidate = weber_numeric(config)
    if config.find_location(candidate) is not None:
        return None
    return structure_reference(config, candidate, 0, _candidate_slack(config, candidate))


def _occupied_center(config, loc):
    off = [i for i, q in enumerate(config.points) if dist(q, loc.location) > config.merge_slack]
    r_min = min(dist(config.points[i], loc.location) for i in off)
    slack = symmetry._direction_slack(config, r_min, symmetry._COORD_DRIFT)
    return loc.location, slack, symmetry._ray_clusters(config, loc.location, off, slack)


def _candidate_slack(config, candidate):
    r_min = min(dist(q, candidate) for q in config.points)
    return symmetry._direction_slack(config, r_min, symmetry._CANDIDATE_ERROR)


def _jittered_polygon(rng, k, jitter, tol):
    """Regular k rays, each direction off by up to jitter, 1-2 robots per ray
    at mixed radii, and 0-3 robots on the center.  Half of them have a ray
    along direction zero, so its robots and partners straddle the wrap."""
    center = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
    phase = rng.choice((0.0, rng.uniform(0, TAU)))
    same = rng.random() < 0.5
    pts = []
    for j in range(k):
        theta = phase + j * TAU / k + rng.uniform(-jitter, jitter)
        for _ in range(1 if same else rng.randint(1, 2)):
            radius = rng.uniform(0.3, 1.5)
            pts.append(Point(center.x + radius * math.cos(theta), center.y + radius * math.sin(theta)))
    pts.extend([center] * rng.randint(0, 3))
    return Configuration(pts, tol)


def _prune_inputs():
    rng = random.Random(31)
    out = []
    for _ in range(10):
        out.append(uniform_configuration(rng, rng.randint(3, 12)))
        out.append(symmetric_configuration(rng))
        out.append(multiplicity_configuration(rng, rng.randint(3, 12)))
        out.append(broken_quasi_regular(rng))
    # five instances each with one, two and three robots parked at the center
    wanted = {1: 5, 2: 5, 3: 5}
    while any(wanted.values()):
        built = construct_quasi_regular(rng)
        if wanted.get(built.parked):
            wanted[built.parked] -= 1
            out.append(built.config)
    # the loose angle slack makes the partner window reach step/8 from m = 7 on
    for tol in (Tolerance(), Tolerance(eps_angle=1e-2)):
        for k in range(3, 13):
            for jitter in (0, 0.1, 1, 3, 10):
                out.extend(_jittered_polygon(rng, k, jitter * tol.eps_angle, tol) for _ in range(2))
    return [config for config in out if not config.is_linear]


def test_prune_rejects_only_failing_orders():
    pruned = by_partners = kept = 0
    for config in _prune_inputs():
        for loc in config.locations:
            center, slack, dirs = _occupied_center(config, loc)
            index = symmetry._RayIndex([theta for theta, _ in dirs])
            robots = sum(c for _, c in dirs)
            for m in range(2, config.n + 1):
                lower = symmetry._orbit_lower_bound(len(dirs), robots, m) > loc.multiplicity
                partnerless = symmetry._partnerless_rays_exceed(index, m, slack, loc.multiplicity)
                full = symmetry._deficits_for(dirs, loc.multiplicity, m, slack, center)
                if lower or partnerless:
                    assert full is None, (config, center, m)
                    pruned += 1
                    by_partners += not lower
                else:
                    kept += 1
    assert pruned > 15_000 and by_partners > 10_000 and kept > 2000


def test_pruned_search_matches_reference():
    found = 0
    for config in _prune_inputs():
        expected = _detect_reference(config)
        assert detect_quasi_regular(config) == expected
        found += expected is not None
    assert found > 80


# --- Weber-point center skip --------------------------------------------------------


def _pull(config, center):
    """Length of the sum of unit vectors from center toward the robots off it."""
    px = py = 0.0
    for q in config.points:
        d = dist(q, center)
        if d > config.merge_slack:
            px += (q.x - center.x) / d
            py += (q.y - center.y) / d
    return math.hypot(px, py)


def _knife_edge_inputs():
    """Centers on the edge of the pull bound and centers with a widened slack.

    A regular m-gon with one vertex parked at its center has |P_c| = mu = 1;
    jittering the other vertices by up to half the angle slack keeps the
    center accepted and pushes |P_c| past mu about half the time.  A robot
    close to the center widens its slack, up to the cap when eps_len is
    tiny; that robot stands in for the parked vertex, so the center stays
    accepted."""
    rng = random.Random(37)
    out = []
    for tol in (Tolerance(), Tolerance(eps_angle=1e-2)):
        for m in range(3, 13):
            for jitter in (0.0, 0.5, 0.5, 0.5):
                center = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
                phase = rng.uniform(0, TAU)
                missing = rng.randrange(m)
                spread = jitter * tol.eps_angle
                pts = [
                    on_ray(center, phase + j * TAU / m + rng.uniform(-spread, spread), rng.uniform(0.3, 1.5))
                    for j in range(m)
                    if j != missing
                ]
                out.append(Configuration(pts + [center], tol))
    for tol, near in ((Tolerance(), 1e-7), (Tolerance(eps_len=1e-14), 1e-13)):
        for m in range(3, 9):
            center = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
            phase = rng.uniform(0, TAU)
            pts = [on_ray(center, phase + j * TAU / m, 1.0) for j in range(1, m)]
            out.append(Configuration(pts + [center, on_ray(center, phase, near)], tol))
    return [config for config in out if not config.is_linear]


def test_center_skip_is_sound():
    accepting = widened = beyond_rounding = 0
    worst = 0.0
    for config in _prune_inputs() + _knife_edge_inputs():
        n = config.n
        for loc in config.locations:
            center, slack, dirs = _occupied_center(config, loc)
            if any(symmetry._deficits_for(dirs, loc.multiplicity, m, slack, center) for m in range(2, n + 1)):
                excess = _pull(config, center) - loc.multiplicity
                assert excess <= 3 * n * n * slack + n * 1e-12, (config, center)
                worst = max(worst, excess / (n * n * slack))
                accepting += 1
                widened += slack > config.tol.eps_angle
                beyond_rounding += excess > n * 1e-12
    assert accepting > 180 and widened >= 12 and beyond_rounding > 20 and worst < 3


def test_center_skip_keeps_detection():
    configs = _knife_edge_inputs()
    found = 0
    for config in configs:
        expected = _detect_reference(config)
        assert detect_quasi_regular(config) == expected
        found += expected is not None and config.find_location(expected.center) is not None
    assert found == len(configs) > 80


def test_center_skip_spares_most_uniform_centers(monkeypatch):
    clustered = []
    original = symmetry._ray_clusters

    def recording(config, c, off, slack):
        clustered.append(c)
        return original(config, c, off, slack)

    monkeypatch.setattr(symmetry, "_ray_clusters", recording)
    rng = random.Random(41)
    centers = skipped = 0
    for _ in range(150):
        config = uniform_configuration(rng, rng.randint(3, 24))
        clustered.clear()
        res = detect_quasi_regular(config)
        occupied = {loc.location for loc in config.locations}
        if res is not None and res.center in occupied:
            continue  # the search stopped early; later centers were never tried
        centers += len(occupied)
        skipped += len(occupied) - sum(c in occupied for c in clustered)
    assert centers > 1500 and skipped >= 0.8 * centers


# --- Weber point --------------------------------------------------------------------


def test_weber_numeric_examples():
    tri = Configuration([(0, 0), (2, 0), (1, math.sqrt(3))])
    got = weber_numeric(tri)
    assert got == pytest.approx((1, math.sqrt(3) / 3), abs=1e-9)

    assert weber_numeric(SQUARE) == pytest.approx((0, 0), abs=1e-12)

    config = Configuration([(0, 0), (4, 0), (0, 4), (1, 1)])
    got = weber_numeric(config)
    oracle = grid_weber(list(config.points))
    assert dist(got, oracle) <= 1e-4

    with pytest.raises(LinearInput):
        weber_numeric(Configuration([(0, 0), (1, 0), (2, 0)]))


def test_weber_numeric_random_against_grid():
    rng = random.Random(21)
    for _ in range(25):
        config = mixed_configuration(rng, rng.randint(3, 8))
        if config.is_linear:
            continue
        got = weber_numeric(config)
        oracle = grid_weber(list(config.points))
        assert dist(got, oracle) <= 1e-4 * max(config.diameter, 1.0)


def test_weber_invariance_under_moves_toward():
    rng = random.Random(22)
    for _ in range(30):
        config = mixed_configuration(rng, rng.randint(3, 8))
        if config.is_linear:
            continue
        w = weber_numeric(config)
        pts = list(config.points)
        for i in range(len(pts)):
            if rng.random() < 0.5 and dist(pts[i], w) > config.merge_slack:
                frac = rng.uniform(0.1, 1.0)
                pts[i] = Point(pts[i].x + frac * (w.x - pts[i].x), pts[i].y + frac * (w.y - pts[i].y))
        moved = Configuration(pts, config.tol)
        if moved.is_linear:
            continue
        assert dist(weber_numeric(moved), w) <= 1e-6 * config.diameter


def test_cqr_equals_weber():
    rng = random.Random(23)
    for _ in range(40):
        built = construct_quasi_regular(rng)
        res = detect_quasi_regular(built.config)
        assert res is not None
        assert dist(res.center, weber_numeric(built.config)) <= 1e-6 * built.config.diameter


def test_weber_point_by_class():
    line = Configuration([(0, 0), (1, 0), (2, 0)])
    assert classify(line).weber == Point(1, 0)
    assert classify(SQUARE).weber == pytest.approx((0, 0), abs=1e-9)
    # quasi-regular around an occupied center; the partition tags this M
    # (strict multiplicity maximum), so the detection itself gives the center
    qr = Configuration([(0, 0), (0, 0), (1, 0), (0, -1)])
    assert classify(qr).tag == TAG_MULTIPLE
    assert dist(detect_quasi_regular(qr).center, weber_numeric(qr)) <= 1e-6


# --- Weber search against the reference ------------------------------------------------


def _off_point_vertex(rng):
    """An optimal vertex c that fails the robot-order pull bound.

    c holds one robot and its location-order pull is 1 - 1e-4 or 1 - 1e-5.
    A location of two robots sits 1e-6 or 3e-7 from c; moving one of its
    robots three quarters of the merge slack toward the pull (still inside
    the location) turns that robot's direction from c by over 1e-3, which
    lifts the robot-order pull past the bound."""
    c = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
    u = rng.uniform(0, TAU)
    near = on_ray(c, u - math.pi / 2, rng.choice((1e-6, 3e-7)))
    spread = math.acos((1 - rng.choice((1e-4, 1e-5))) / 2)
    pts = [c, near, near] + [on_ray(c, u + math.pi / 2, 1.0)] * 2
    pts += [on_ray(c, u + spread, rng.uniform(0.5, 1)), on_ray(c, u - spread, rng.uniform(0.5, 1))]
    pts[2] = on_ray(near, u, 0.75 * Configuration(pts).merge_slack)
    return Configuration(pts)


def _centroid_on_vertex(rng):
    """Offsets from c that sum to zero, so reweighting starts on c; when c's
    pull exceeds its multiplicity the search pushes off it."""
    c = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
    offsets = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(rng.randint(3, 6))]
    offsets.append((-sum(dx for dx, _ in offsets), -sum(dy for _, dy in offsets)))
    return Configuration([c] + [Point(c.x + dx, c.y + dy) for dx, dy in offsets])


def _weber_edge_inputs():
    rng = random.Random(43)
    out = [_off_point_vertex(rng) for _ in range(20)]
    out += [_centroid_on_vertex(rng) for _ in range(40)]
    # near-coincident robots that are not exactly equal
    for _ in range(20):
        pts = [Point(0, 0), Point(1e-12, 0)] + [Point(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(rng.randint(2, 8))]
        out.append(Configuration(pts))
    return [config for config in out if not config.is_linear]


def test_weber_search_matches_reference(monkeypatch):
    """``weber_numeric`` returns the reference's doubles, and so does its
    search (``_weber_start``, then ``_newton_polish``) with every vertex
    list that ``detect_quasi_regular`` hands it."""
    handed = []
    original = symmetry.weber_numeric
    start = symmetry._weber_start

    def recording(config, sites, vertices):
        handed.append(vertices)
        return start(config, sites, vertices)

    pushed = []
    push_off = symmetry._push_off_vertex

    def pushing(*args):
        pushed.append(args)
        return push_off(*args)

    monkeypatch.setattr(symmetry, "_weber_start", recording)
    monkeypatch.setattr(symmetry, "_push_off_vertex", pushing)
    restricted = full = on_vertex = 0
    for config in _prune_inputs() + _knife_edge_inputs() + _weber_edge_inputs():
        expected = bits(weber_reference(config))
        assert bits(original(config)) == expected, config
        on_vertex += expected in {bits(loc.location) for loc in config.locations}
        handed.clear()
        detect_quasi_regular(config)
        for vertices in handed[:]:  # the checks below search again and record
            xs, ys, ms = sites = symmetry._sites(config)
            start_point, passes = symmetry._weber_start(config, sites, vertices)
            got = symmetry._newton_polish(xs, ys, ms, start_point, config.diameter) if passes else start_point
            assert bits(got) == expected, config
            if vertices is None:
                full += 1
            else:
                restricted += len(vertices) < len(config.locations)
    assert restricted > 150 and full > 30 and on_vertex > 200 and len(pushed) > 40


def _equiangular(rng, k, per_ray=1):
    """k equally spaced rays around an unoccupied center, robots at unequal
    radii: the unit vectors cancel, the centroid is off the center, and the
    reweighting takes about 40 iterations to converge (a regular polygon's
    takes one)."""
    center = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
    phase = rng.uniform(0, TAU)
    return Configuration(
        [on_ray(center, phase + j * TAU / k, rng.uniform(0.2, 1.5)) for j in range(k) for _ in range(per_ray)]
    )


def _equiangular_inputs():
    """Equiangular configurations, and the same with one robot moved by
    r*diameter, r from 1e-13 to 1e-6, across the regularity knife edge."""
    rng = random.Random(47)
    out = []
    for k in range(3, 13):
        for per_ray in (1, 1, 2):
            config = _equiangular(rng, k, per_ray)
            out.append(config)
            for r in (1e-13, 1e-12, 1e-11, 1e-10, 3e-10, 1e-9, 3e-9, 1e-8, 1e-7, 1e-6):
                pts = list(config.points)
                i = rng.randrange(len(pts))
                pts[i] = on_ray(pts[i], rng.uniform(0, TAU), r * config.diameter)
                out.append(Configuration(pts))
    return out


def test_detect_matches_reference():
    """The detection gives the reference's center doubles, order and
    deficits on every input, on both sides of the regularity knife edge."""
    equiangular = _equiangular_inputs()
    inputs = _prune_inputs() + _knife_edge_inputs() + _weber_edge_inputs() + equiangular
    unoccupied = rejected = 0
    for k, config in enumerate(inputs):
        expected = detect_quasi_regular_reference(config)
        assert qr_bits(detect_quasi_regular(config)) == qr_bits(expected), config
        unoccupied += expected is not None and config.find_location(expected.center) is None
        rejected += expected is None and k >= len(inputs) - len(equiangular)
    assert unoccupied > 150 and 0 < rejected < len(equiangular) // 2


def test_classification_runs_one_weber_search(monkeypatch):
    """A classification that reaches the unoccupied candidate runs the Weber
    search exactly once.  On class-A input the certificate rejects every
    order before the polish, so no Newton step runs and no ``Rays`` is built
    around a point that is not a location; on QR input the search runs to
    the end, and the center carries the reference search's doubles."""
    uniform = uniform_configuration(random.Random(53), 20)  # the generator classifies
    uniform = Configuration(uniform.points, uniform.tol)
    regular = Configuration([on_ray(Point(0.25, -0.5), j * TAU / 12, 1.0) for j in range(12)])
    searches, polishes = [], []
    start, polish = symmetry._weber_start, symmetry._newton_polish

    def counting_start(config, sites, vertices):
        searches.append(vertices)
        return start(config, sites, vertices)

    def counting_polish(*args):
        polishes.append(args)
        return polish(*args)

    monkeypatch.setattr(symmetry, "_weber_start", counting_start)
    monkeypatch.setattr(symmetry, "_newton_polish", counting_polish)
    assert classify(uniform).tag == TAG_ASYMMETRIC
    assert len(searches) == 1 and not polishes
    assert all(uniform.find_location(center) is not None for center in uniform._rays)
    for config in (regular, _equiangular(random.Random(59), 9)):
        searches.clear()
        polishes.clear()
        cls = classify(config)
        assert cls.tag == TAG_QREGULAR and len(searches) == len(polishes) == 1
        assert bits(cls.weber) == bits(weber_reference(config))


# --- the order certificate before the polish ------------------------------------------
#
# ``_polish_disc`` bounds where ``_newton_polish`` can end from the
# reweighting's end point y; ``_rejects_every_order`` rejects every order for
# every center in that disc.  The tests run the polish and the structure test
# the certificate skips, and check the disc also against the points beyond
# the polished candidate whose gradient norm is no larger than y's, which a
# polish is allowed to end on.


def _exact(config):
    return all(config.points[i] == loc.location for loc in config.locations for i in loc.indices)


def _farthest_low_gradient(sites, y, c):
    """A point on the ray from y through c, beyond c, whose computed gradient
    norm is at most y's, found by bisection: as far as the Hessian lets it be."""
    g = symmetry._gradient(*sites, y)[2]
    length = dist(c, y)
    ux, uy = (c.x - y.x) / length, (c.y - y.y) / length
    lo, hi = 0.0, 4.0 * length
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if symmetry._gradient(*sites, Point(c.x + mid * ux, c.y + mid * uy))[2] <= g:
            lo = mid
        else:
            hi = mid
    return Point(c.x + lo * ux, c.y + lo * uy)


def _check_certificate(config):
    """Check the disc and the rejection at the reweighting's end point and at
    the converged Weber point; returns (discs, rejections, order-1 candidates)."""
    sites = symmetry._sites(config)
    start, passes = symmetry._weber_start(config, sites, None)
    if not passes:
        return 0, 0, 0
    discs = rejections = order_one = 0
    for y in (start, weber_numeric(config)):
        disc = symmetry._polish_disc(sites, y, config.n)
        candidate = symmetry._newton_polish(*sites, y, config.diameter)
        order = symmetry._unoccupied_order(config, candidate)
        order_one += order < 2
        if disc is None:
            continue
        radius = disc[0]
        discs += 1
        assert dist(candidate, y) <= radius, (config, y)
        if candidate != y:
            assert dist(_farthest_low_gradient(sites, y, candidate), y) <= radius, (config, y)
        if symmetry._rejects_every_order(config, sites, y, _exact(config)):
            assert order < 2, (config, y)
            rejections += 1
    return discs, rejections, order_one


def test_order_certificate_is_sound():
    """Wherever the certificate rejects, the polish and the structure test
    give an order below 2, across the regularity knife edge (equiangular
    rays with one robot moved by 1e-13 to 1e-6 of the diameter), the
    pruning and center-skip inputs and the Weber edge cases."""
    inputs = _equiangular_inputs() + _prune_inputs() + _knife_edge_inputs() + _weber_edge_inputs()
    discs = rejections = order_one = 0
    for config in inputs:
        found = _check_certificate(config)
        discs += found[0]
        rejections += found[1]
        order_one += found[2]
    assert discs > 800 and rejections > 120 and order_one > 2 * rejections


def test_polish_disc_is_scale_free():
    """Scaled by 2^k, every site and the start point give exactly 2^k times
    the radius and the distances, or no disc at every k.  A full order-2
    configuration certifies none; its m/d^3 terms once underflowed at 2^359
    and certified a disc of 0.0178 times the scale there."""
    rng = random.Random(4)
    inputs = [construct_quasi_regular(random.Random(6), m=2, park_deficits=False).config]
    inputs += [uniform_configuration(rng, n) for n in (7, 12, 30, 60)] + _equiangular_inputs()[:40]
    certified = 0
    for config in inputs:
        sites = symmetry._sites(config)
        start, passes = symmetry._weber_start(config, sites, None)
        if not passes:
            continue
        xs, ys, ms = sites
        plain = symmetry._polish_disc(sites, start, config.n)
        for k in (-338, -300, 0, 300, 359):
            scaled = ([math.ldexp(x, k) for x in xs], [math.ldexp(y, k) for y in ys], ms)
            disc = symmetry._polish_disc(scaled, Point(math.ldexp(start.x, k), math.ldexp(start.y, k)), config.n)
            if plain is None:
                assert disc is None, (config, k)
            else:
                assert disc[0] == math.ldexp(plain[0], k), (config, k)
                assert disc[1] == [math.ldexp(d, k) for d in plain[1]], (config, k)
        certified += plain is not None
    assert certified >= 10


# (n, seed of ``uniform_configuration``) -> the radius ``_polish_disc``
# certifies at the reweighting's end point, its terms added left to right;
# the builtin ``sum`` of CPython 3.12 and later gives each a different last bit
_LEFT_TO_RIGHT_RADII = {
    (5, 7): "0x1.9c4d2c7b0b5c1p-10",
    (5, 15): "0x1.d5d4a512fb2a2p-9",
    (8, 3): "0x1.217db6416415bp-10",
    (12, 0): "0x1.66ee4acc87586p-9",
    (20, 2): "0x1.a537c878a4cf8p-7",
    (20, 16): "0x1.347eb729996b3p-9",
}


def test_polish_disc_adds_left_to_right():
    """The certificate's radius is the same double under every CPython."""
    for (n, seed), expected in _LEFT_TO_RIGHT_RADII.items():
        config = uniform_configuration(random.Random(seed), n)
        sites = symmetry._sites(config)
        start, passes = symmetry._weber_start(config, sites, None)
        assert passes
        assert symmetry._polish_disc(sites, start, config.n)[0].hex() == expected, (n, seed)


@st.composite
def _jittered_equiangular(draw):
    """Equiangular rays around an unoccupied center with every robot moved
    by up to ``_CANDIDATE_ERROR`` times the diameter, and up to three robots
    doubled by a copy a sliver off them, within the merge slack."""
    k = draw(st.integers(3, 12))
    per_ray = draw(st.integers(1, 2))
    center = Point(draw(st.floats(-1, 1)), draw(st.floats(-1, 1)))
    phase = draw(st.floats(0, TAU))
    radius = st.floats(0.2, 1.5)
    pts = [on_ray(center, phase + j * TAU / k, draw(radius)) for j in range(k) for _ in range(per_ray)]
    reach = symmetry._CANDIDATE_ERROR * Configuration(pts).diameter
    turn = st.floats(0, TAU)
    pts = [on_ray(p, draw(turn), draw(st.floats(0, 1)) * reach) for p in pts]
    slack = Configuration(pts).merge_slack
    for i in draw(st.lists(st.integers(0, len(pts) - 1), max_size=3)):
        pts.append(on_ray(pts[i], draw(turn), draw(st.floats(0.01, 0.5)) * slack))
    return Configuration(pts)


@given(_jittered_equiangular())
@settings(max_examples=200, deadline=None)
def test_order_certificate_is_sound_near_regular_centers(config):
    _check_certificate(config)


def test_order_certificate_rejects_most_uniform_class_a():
    rng = random.Random(61)
    candidates = rejected = 0
    for _ in range(100):
        config = uniform_configuration(rng, rng.randint(16, 24))
        if classify(config).tag != TAG_ASYMMETRIC:
            continue
        sites = symmetry._sites(config)
        start, passes = symmetry._weber_start(config, sites, None)
        if not passes:
            continue
        candidates += 1
        rejected += symmetry._rejects_every_order(config, sites, start, _exact(config))
    assert candidates > 80 and rejected > 0.7 * candidates


def test_order_certificate_runs_only_off_the_centroid(monkeypatch):
    """A symmetric configuration's centroid is its Weber point, so the
    reweighting stops on its first pass and the certificate, which would
    fail there, is not run; on uniform class-A input the reweighting moves
    off the centroid and the certificate runs."""
    calls = []
    certificate = symmetry._rejects_every_order
    monkeypatch.setattr(symmetry, "_rejects_every_order", lambda *args: calls.append(args) or certificate(*args))
    rng = random.Random(67)
    polygons = [Configuration([on_ray(Point(0.25, -0.5), j * TAU / m, 1.0) for j in range(m)]) for m in (12, 160)]
    sweep_style = [symmetric_configuration(rng, k, orbits, False) for k in (3, 4, 5, 6) for orbits in (1, 2)]
    for config in polygons + sweep_style:
        cls = classify(config)
        assert cls.tag == TAG_QREGULAR and config.find_location(cls.weber) is None, config
    assert calls == []
    asymmetric = 0
    for _ in range(10):
        config = Configuration(uniform_configuration(rng, 20).points)
        asymmetric += classify(config).tag == TAG_ASYMMETRIC
    assert asymmetric > 5 and len(calls) >= 1


@pytest.mark.parametrize("certify", ["never", "always"])
def test_detection_does_not_depend_on_the_certificate(monkeypatch, certify):
    """The certificate only spares the polish: run it never, or after every
    reweighting, first passes included, and every detection is the
    unpruned reference's."""
    consulted, first_passes = [], []
    if certify == "never":
        monkeypatch.setattr(symmetry, "_rejects_every_order", lambda *args: consulted.append(args) or False)
    else:
        start = symmetry._weber_start

        def never_first(config, sites, vertices):
            point, passes = start(config, sites, vertices)
            if passes == 1:
                first_passes.append(config)
            return point, passes and max(passes, 2)

        monkeypatch.setattr(symmetry, "_weber_start", never_first)
    for config in _prune_inputs() + _knife_edge_inputs():
        assert detect_quasi_regular(config) == _detect_reference(config), config
    assert len(consulted if certify == "never" else first_passes) > 10


def test_slack_by_r_min_matches_direction_slack():
    """The slack with its factors taken once gives ``_direction_slack``'s
    doubles, and both give the formula's: ``eps_angle`` at r_min <= 0 and
    at ordinary distances, the widened slack near the center, the cap
    closer still."""
    cap = symmetry._MAX_ANGLE_SLACK
    kinds = set()
    loose = Configuration(ASYM4.points, Tolerance(eps_angle=1e-2))
    for config in (SQUARE, ASYM4, loose, Configuration([(0, 0), (3e-80, 1e-80)])):
        eps = config.tol.eps_angle
        for error in (symmetry._COORD_DRIFT, symmetry._CANDIDATE_ERROR):
            slack_at = symmetry._slack_by_r_min(config, error)
            widens_below = error * config.diameter / eps
            capped_below = error * config.diameter / cap
            for r_min in (
                0.0,
                -0.0,
                config.diameter,
                0.3 * config.diameter,
                widens_below,
                math.nextafter(widens_below, 0.0),
                0.5 * widens_below,
                capped_below,
                math.nextafter(capped_below, 0.0),
                1e-3 * capped_below,
            ):
                expected = eps if r_min <= 0.0 else min(max(eps, error * config.diameter / r_min), cap)
                got = slack_at(r_min)
                assert got.hex() == expected.hex() == symmetry._direction_slack(config, r_min, error).hex()
                kinds.add("zero" if r_min <= 0.0 else "base" if got == eps else "cap" if got == cap else "widened")
    assert kinds == {"zero", "base", "widened", "cap"}


def test_weber_search_does_not_depend_on_its_cap(monkeypatch):
    """The reweighting stop ends every search long before the iteration
    guard: with the guard cut from 1000 to 100, every Weber point and every
    detection keeps its bits (these inputs take at most 28 passes)."""
    inputs = _prune_inputs() + _knife_edge_inputs() + _weber_edge_inputs() + _equiangular_inputs()
    expected = [(bits(weber_numeric(config)), qr_bits(detect_quasi_regular(config))) for config in inputs]
    monkeypatch.setattr(symmetry, "_WEBER_MAX_ITER", 100)
    for config, want in zip(inputs, expected):
        fresh = Configuration(config.points, config.tol)
        assert (bits(weber_numeric(fresh)), qr_bits(detect_quasi_regular(fresh))) == want, config


def test_election_and_screen_match_reference_on_center_inputs():
    """Lazy safe-point election decides as the reference does on every
    input of the pruning and Weber tests."""
    for config in _prune_inputs() + _knife_edge_inputs() + _weber_edge_inputs():
        assert [bits(p) for p in safe_points(config)] == [bits(p) for p in safe_points_reference(config)]
        assert outcome(_elect_safe_point, config) == outcome(elect_reference, config), config


# --- one structure test for every center -------------------------------------------
#
# An unoccupied Weber candidate runs ``_structure`` with multiplicity 0, the
# test an occupied center runs with its own multiplicity.  The paper defines
# a regular center by the periodicity of its string of angles; the two
# agree on exact inputs and part only on knife edges.


def test_unoccupied_center_keeps_its_order_once_occupied():
    """A robot added on an unoccupied quasi-regular center leaves the
    configuration quasi-regular at that point, of the same order or
    higher, wherever both centers see the same slack, ``eps_angle``: the
    center then runs the same structure test with multiplicity 1 instead
    of 0 on the same rays.  The knife-edge pentagon, whose hop angles
    differ by more than the slack, is the input where the string of
    angles once said 1 without the robot and 5 with it."""
    pentagon = Configuration(json.loads((Path(__file__).parent / "data" / "knife_edge_pentagon.json").read_text())["points"])
    res = detect_quasi_regular(pentagon)
    assert res is not None and res.m == 5 and pentagon.find_location(res.center) is None
    filled = detect_quasi_regular(Configuration(list(pentagon.points) + [res.center]))
    assert filled is not None and (filled.center, filled.m) == (res.center, 5)
    checked = 0
    for config in _prune_inputs() + _knife_edge_inputs() + _equiangular_inputs():
        res = detect_quasi_regular(config)
        if res is None or config.find_location(res.center) is not None:
            continue
        c = res.center
        filled = Configuration(list(config.points) + [c], config.tol)
        slacks = (
            symmetry._direction_slack(config, min(symmetry.Rays.of(config, c).dists), symmetry._CANDIDATE_ERROR),
            symmetry._direction_slack(filled, symmetry.Rays.of(filled, c).r_min, symmetry._COORD_DRIFT),
        )
        if slacks != (config.tol.eps_angle,) * 2:
            continue
        got = detect_quasi_regular(filled)
        assert got is not None and got.center == c and got.m >= res.m, (config, res.m, got)
        checked += 1
    assert checked > 200


def _exact_regular_inputs():
    """Exact rotational structures around an unoccupied center: symmetric
    configurations of order 2 to 24 with one to three orbits, quasi-regular
    constructions with no deficit (every slot full, robots at random
    radii) and regular polygons."""
    rng = random.Random(89)
    out = []
    for k in range(2, 25):
        out += [symmetric_configuration(rng, k=k, orbits=orbits, with_center=False) for orbits in (1, 2, 3)]
        center, phase = Point(rng.uniform(-1, 1), rng.uniform(-1, 1)), rng.uniform(0, TAU)
        out.append(Configuration([on_ray(center, phase + j * TAU / k, 1.0) for j in range(k)]))
    for m in range(2, 9):
        out += [construct_quasi_regular(rng, m=m, park_deficits=False).config for _ in range(4)]
    return [config for config in out if not config.is_linear]


def test_regularity_matches_the_string_of_angles_on_exact_inputs():
    inputs = _exact_regular_inputs()
    regular = 0
    for config in inputs:
        candidate = weber_numeric(config)
        assert config.find_location(candidate) is None, config
        slack = _candidate_slack(config, candidate)
        order = regularity_at(config, candidate, slack)
        assert order == _regularity_reference(config, candidate, slack), config
        regular += order >= 2
    assert regular == len(inputs) > 110


def test_regularity_departs_from_the_string_of_angles_only_upward():
    """On every unoccupied Weber candidate of the pruning, knife-edge and
    equiangular inputs, the structure test's order is at least the string's.
    It is higher where the rays lie within the slack of an m-fold structure
    while consecutive hop angles differ by more than the slack: on 429
    candidates, 21 that the string leaves at 1 have an order of 2 or more,
    and 10 more have a higher order."""
    candidates = flips = rises = 0
    for config in _prune_inputs() + _knife_edge_inputs() + _equiangular_inputs():
        candidate = weber_numeric(config)
        if config.find_location(candidate) is not None:
            continue
        slack = _candidate_slack(config, candidate)
        order = regularity_at(config, candidate, slack)
        expected = _regularity_reference(config, candidate, slack)
        assert order >= expected, (config, order, expected)
        candidates += 1
        flips += expected == 1 < order
        rises += 1 < expected < order
    assert candidates > 400 and flips > 10 and rises > 5


def test_weber_searches_land_on_the_symmetry_center():
    """On exactly symmetric input with an unoccupied center, the Weber search
    lands within a quarter of ``_CANDIDATE_ERROR`` times the diameter of the
    ``math.fsum`` centroid, the bound the ``symmetricity`` argument for an
    unoccupied center rests on (the worst seen is about 3e-16 times the
    diameter)."""
    rng = random.Random(97)
    checked = 0
    for k in range(2, 25):
        for orbits in (1, 2, 3):
            for _ in range(9):
                config = symmetric_configuration(rng, k=k, orbits=orbits, with_center=False)
                if config.is_linear:
                    continue
                n = config.n
                g = Point(math.fsum(x for x, _ in config.points) / n, math.fsum(y for _, y in config.points) / n)
                bound = symmetry._CANDIDATE_ERROR * config.diameter / 4.0
                assert dist(weber_numeric(config), g) <= bound, config
                checked += 1
    assert checked > 500


# --- the cached ray index -----------------------------------------------------------
#
# ``successor`` walks one sorted index per center; the reference rescans
# every robot at every step (``tests/references.py``).


def _stacked_polygon(rng, k, stacks, parked, radius=1.0):
    """A regular k-gon with some vertices stacked two or three deep and
    ``parked`` robots on its center; returns the configuration and center."""
    center = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
    phase = rng.choice((0.0, rng.uniform(0, TAU)))
    pts = []
    for j in range(k):
        vertex = on_ray(center, phase + j * TAU / k, radius)
        pts.extend([vertex] * (rng.randint(2, 3) if j < stacks else 1))
    pts.extend([center] * parked)
    rng.shuffle(pts)
    return Configuration(pts), center


def _queued_rays(rng, rays, near_zero=False):
    """Several robots per ray at mixed radii, some co-located; with
    ``near_zero`` the rays crowd both sides of direction zero."""
    center = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
    pts = []
    for _ in range(rays):
        if near_zero:
            theta = rng.choice((1.0, -1.0)) * rng.choice((0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3))
        else:
            theta = rng.uniform(0, TAU)
        radii = [rng.uniform(0.2, 1.5) for _ in range(rng.randint(1, 4))]
        pts.extend(on_ray(center, theta, r) for r in radii + radii[:rng.randint(0, 1)])
    pts.append(on_ray(center, 2.0, 1.0))
    rng.shuffle(pts)
    return Configuration(pts), center


def _sweep_inputs():
    """(configuration, center, angle slacks) triples; None is the default slack."""
    rng = random.Random(160)
    maximal = symmetry._MAX_ANGLE_SLACK
    out = []
    for k in (3, 4, 5, 6, 7, 8, 12, 16, 40, 160):
        for stacks, parked in ((0, 0), (k // 3, 1), (k // 2, 2)):
            config, center = _stacked_polygon(rng, k, stacks, parked)
            out.append((config, center, (None, 1e-6, maximal)))
    for _ in range(12):
        config, center = _queued_rays(rng, rng.randint(2, 8))
        out.append((config, center, (None, 1e-3, maximal)))
        config, center = _queued_rays(rng, rng.randint(2, 6), near_zero=True)
        out.append((config, center, (None, 1e-12, 1e-9, 1e-6, maximal)))
    # rays one slack apart, give or take, for every slack up to the cap
    for slack in (1e-9, 1e-6, 1e-3, maximal):
        for _ in range(4):
            center = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
            base = rng.choice((0.0, rng.uniform(0, TAU)))
            pts = [
                on_ray(center, base + j * slack * rng.choice((0.5, 0.999, 1.0, 1.001, 2.0)), rng.uniform(0.3, 1.0))
                for j in range(-3, 4)
            ]
            out.append((Configuration(pts), center, (None, slack)))
    # robots close to the center widen the default slack, up to the cap
    for near in (1e-3, 1e-8, 1e-11):
        for tol in (Tolerance(), Tolerance(eps_len=1e-14)):
            config, center = _stacked_polygon(rng, rng.randint(3, 9), 1, 0)
            pts = list(config.points) + [on_ray(center, rng.uniform(0, TAU), near), center]
            out.append((Configuration(pts, tol), center, (None,)))
    # the same inputs seen from random local frames
    framed = []
    for config, center, slacks in out[::3]:
        if config.n <= 40:
            frame = LocalFrame.random(rng, config.diameter)
            framed.append((frame.apply_config(config), frame_point(frame, center), slacks))
    return out + framed


def _successors(fn, config, center, slack):
    """Every robot's successor by ``fn``, or the message of its DegenerateCenter."""
    out = []
    for i in range(config.n):
        try:
            out.append(fn(config, i, center, slack))
        except DegenerateCenter as exc:
            out.append(str(exc))
    return out


def _successor_at(config, i, center, slack):
    """``successor`` at angle slack ``slack``, None for its default."""
    rays = symmetry.Rays.of(config, center)
    if slack is None or rays.angles[i] is None:
        return successor(config, i, center)  # raises DegenerateCenter on the center
    return symmetry._successor_step(config, rays, slack, i)


def test_indexed_successor_matches_scan():
    stepped = 0
    for config, center, slacks in _sweep_inputs():
        for slack in slacks:
            expected = _successors(successor_reference, config, center, slack)
            assert _successors(_successor_at, config, center, slack) == expected, (config, center, slack)
            stepped += config.n
    assert stepped > 5000


def test_indexed_successor_at_slack_knife_edges():
    """Angle slacks set to a measured gap between two rays, give or take a
    few ulps: the inward step (own ray), the jump (nearest clockwise ray)
    and the bucket (rays within a slack of that one) each hit their bound."""
    rng = random.Random(2)
    cases = 0
    for _ in range(60):
        center = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
        base = rng.choice((0.0, 1e-13, -1e-13, rng.uniform(0, TAU)))
        gap = rng.choice((1e-9, 1e-6, 1e-3, 1e-2))
        far = rng.uniform(0.1, 2.0)
        thetas = [base, base - gap, base - far, base - far - gap, base + gap]
        pts = [on_ray(center, theta, rng.uniform(0.3, 1.0)) for theta in thetas]
        pts += [on_ray(center, base, 0.2), on_ray(center, base - far, 0.25)]
        config = Configuration(pts)
        ctx = CenterContext(config, center, 1.0)
        measured = {
            (ctx.angs[0] - ctx.angs[1]) % TAU,
            (ctx.angs[2] - ctx.angs[3]) % TAU,
            (ctx.angs[4] - ctx.angs[0]) % TAU,
            (ctx.angs[0] - ctx.angs[3]) % TAU - (ctx.angs[0] - ctx.angs[2]) % TAU,
            (ctx.angs[1] - ctx.angs[3]) % TAU - (ctx.angs[1] - ctx.angs[2]) % TAU,
        }
        for edge in measured:
            slack = edge
            for _ in range(3):
                slack = math.nextafter(slack, 0.0)
            for _ in range(7):
                expected = _successors(successor_reference, config, center, slack)
                assert _successors(_successor_at, config, center, slack) == expected, (config, center, slack)
                slack = math.nextafter(slack, 1.0)
                cases += 1
    assert cases > 800


def test_rays_are_cached_per_center():
    config, center = _stacked_polygon(random.Random(3), 6, 2, 1)
    rays = symmetry.Rays.of(config, center)
    assert symmetry.Rays.of(config, Point(center.x, center.y)) is rays
    assert list(rays.dists) == [dist(p, center) for p in config.points]
    assert rays.off == [i for i, d in enumerate(rays.dists) if d > config.merge_slack]
    points = [config.points[i] for i in rays.off]
    assert [rays.angles[i] for i in rays.off] == [math.atan2(p.y - center.y, p.x - center.x) % TAU for p in points]
    successor(config, rays.off[0], center)
    assert symmetry.Rays.of(config, center) is rays


def test_classified_configuration_is_freed_by_reference_counting():
    # neither a Rays nor the cell tree's walks hold a reference back to
    # their configuration, so no cycle keeps any of them alive once the
    # last reference goes; at the tree cutoff the exact pair pass bounds
    # the locations instead
    enabled = gc.isenabled()
    gc.disable()
    try:
        for n in (configuration._TREE_FROM, configuration._TREE_FROM + 1):
            config = uniform_configuration(random.Random(5), n)
            assert classify(config).tag == TAG_ASYMMETRIC
            assert len(config._lower_sums) == len(config.locations)
            assert (config._lower_sums is config.__dict__.get("_pair_sums")) == (n <= configuration._TREE_FROM)
            assert config._rays
            refs = [weakref.ref(config)] + [weakref.ref(rays) for rays in config._rays.values()]
            del config
            assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        if enabled:
            gc.enable()


def _near_tie_shapes(n):
    """Class-A inputs of n robots whose distance sums are nearly flat over
    the locations: random angles on a circle and on a 1 x 0.9 ellipse, a
    circle mirrored across the x axis, and an exact (n-1)-gon with one
    robot inside."""
    rng = random.Random(3)
    angles = [rng.uniform(0, TAU) for _ in range(n)]
    half = [rng.random() * math.pi for _ in range(n // 2)]
    gon = [Point(math.cos(TAU * j / (n - 1)), math.sin(TAU * j / (n - 1))) for j in range(n - 1)]
    return [
        Configuration([Point(math.cos(t), math.sin(t)) for t in angles]),
        Configuration([Point(math.cos(t), 0.9 * math.sin(t)) for t in angles]),
        Configuration([Point(math.cos(t), math.sin(t)) for t in half] + [Point(math.cos(t), -math.sin(t)) for t in half]),
        Configuration(gon + [Point(0.31, 0.17)]),
    ]


def test_most_centers_never_compute_directions(monkeypatch):
    # class A builds a Rays only around the locations the center test
    # measures exactly (those that pass the pull bound) and the safe points
    # it tests, plus the Weber candidate and a vertex the Weber search may
    # push off; the election's exact sums keep no row.  Exact sums and
    # safety tests together stay a small share of the locations, on near
    # ties too, where the election refines walks best first.  Directions
    # are computed only around the centers and safe points it tests.
    measured, tested = [], []
    sums_at, sum_at, is_safe = Configuration._sums_at, Configuration._sum_at, configuration._is_safe
    monkeypatch.setattr(Configuration, "_sums_at", lambda config, k: measured.append(k) or sums_at(config, k))
    monkeypatch.setattr(Configuration, "_sum_at", lambda config, k: measured.append(k) or sum_at(config, k))
    monkeypatch.setattr(configuration, "_is_safe", lambda config, k: tested.append(k) or is_safe(config, k))
    uniform = [Configuration(uniform_configuration(random.Random(n), n).points) for n in (160, 320)]
    for config in uniform + _near_tie_shapes(160):
        n = config.n
        measured.clear()
        tested.clear()
        assert classify(config).tag == TAG_ASYMMETRIC
        built = list(config._rays.values())
        needed = len(set(measured)) + len(set(tested)) + 2
        assert measured and len(built) <= needed < n // 4, (config, len(built), needed)
    for config in uniform:
        built = list(config._rays.values())
        assert sum("angles" in vars(rays) for rays in built) < len(built)


def test_each_location_row_is_summed_once(monkeypatch):
    # above ``_TREE_FROM`` robots the quasi-regular center test asks for a
    # location's exact sums and the class-A election for its exact
    # distance sum, often of the same location; its row is summed on the
    # first request only, and the election reads the sum from there
    asked, summed = [], []
    sums_at, sum_at = Configuration._sums_at, Configuration._sum_at
    row = vars(symmetry.Rays)["_sums"]
    sum_row = row.func
    monkeypatch.setattr(Configuration, "_sums_at", lambda config, k: asked.append(k) or sums_at(config, k))
    monkeypatch.setattr(Configuration, "_sum_at", lambda config, k: asked.append(k) or sum_at(config, k))
    monkeypatch.setattr(row, "func", lambda rays: summed.append(rays.center) or sum_row(rays))
    repeats = 0
    for n in (80, 160, 320):
        for seed in range(3):
            config = Configuration(uniform_configuration(random.Random(seed), n).points)
            asked.clear()
            summed.clear()
            assert classify(config).tag == TAG_ASYMMETRIC
            assert 0 < len(summed) == len(set(summed)) <= len(set(asked)), (n, seed)
            repeats += len(asked) - len(set(asked))
    assert repeats > 5


def test_exact_sums_come_from_the_pair_pass_up_to_tree_from():
    # at or below ``_TREE_FROM`` robots a center that reaches the exact
    # quasi-regular test takes its triple from the pair pass, and no
    # location's row is summed a second time
    center = Point(0.3, -0.2)
    config = Configuration([on_ray(center, 0.1 + j * TAU / 7, 1.0) for j in range(7)] + [center])
    assert classify(config).tag == TAG_QREGULAR
    assert "_pair_sums" in vars(config) and center in config._rays
    assert not any("_sums" in vars(rays) for rays in config._rays.values())


def test_cell_tree_only_above_tree_from(monkeypatch):
    built = []
    bounds = geometry._CellBounds
    monkeypatch.setattr(geometry, "_CellBounds", lambda *args: built.append(args) or bounds(*args))
    rng = random.Random(8)
    sizes = [rng.randint(3, configuration._TREE_FROM) for _ in range(40)] + [configuration._TREE_FROM]
    for n in sizes:
        config = mixed_configuration(rng, n)
        if config.n > configuration._TREE_FROM:
            continue
        cls = classify(config)
        if cls.tag != "B":
            for i in range(config.n):
                compute(config, i, cls)
    assert built == []
    config = uniform_configuration(rng, configuration._TREE_FROM + 1)
    classify(config)
    # one tree bounds every location at once, and no pair pass runs
    assert len(built) == 1 and list(built[0][1]) == occupied_points(config)
    assert "_pair_sums" not in vars(config)


# --- the cell tree's bounds and the exact pair pass ----------------------------------
#
# Each bound must stay at or below the exact value it bounds, computed as
# the unpruned routines compute it, and every decision it prunes must match
# the references bit for bit.  The tree is built directly, at every size, so
# the bounds keep their coverage below the size from which classification
# builds one.  The exact pass must give each location's values bit for bit
# as its ``Rays`` row does.


def _on_path(config, path, run):
    """``run`` on a fresh copy of config whose classification measures the
    locations the ``path`` way, by the cell tree or by the exact pair pass,
    at any size; its result, and whether it read the bounds."""
    copy = Configuration(config.points, config.tol)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(configuration, "_TREE_FROM", 0 if path == "tree" else 10**9)
        result = run(copy)
    return result, "_lower_sums" in vars(copy)


def _tree_bounds(config):
    """The cell tree's bounds on every location, at any size: the triples
    classification reads, each walk stopped where the center test needs
    it, and each walk's complete sum bound."""
    (lower, walks), _ = _on_path(config, "tree", lambda copy: (copy._lower_sums, copy._sum_walks))
    return lower, [walks.refine(k, math.inf) for k in range(len(lower))]


def _offset(config, factor=1e6):
    """The configuration translated by ``factor`` times its diameter."""
    shift = factor * config.diameter
    return Configuration([Point(p.x + shift, p.y - 0.5 * shift) for p in config.points], config.tol)


def _large_inputs():
    rng = random.Random(12)
    out = []
    # mirror images across an axis have equal distance sums, up to the
    # order of their terms, and different views
    for pairs in (5, 12, 40, 80):
        half = [Point(rng.uniform(0.05, 1), rng.uniform(-1, 1)) for _ in range(pairs)]
        config = Configuration(half + [Point(-p.x, p.y) for p in half])
        out += [config, Similarity.random(rng).apply_config(config)]
    # one robot moved by about a tenth of the merge slack: the mirror sums
    # then differ by more than the bounds' rounding margins, yet still tie
    for pairs in (5, 6, 7, 8, 9) * 3:
        half = [Point(rng.uniform(0.05, 1), rng.uniform(-1, 1)) for _ in range(pairs)]
        half.append(Point(half[0].x + 2e-10, half[0].y))
        out.append(Configuration(half[1:] + [Point(-p.x, p.y) for p in half[:-1]]))
    # stacked multiplicities shared by several locations
    for n in (12, 40, 160):
        spots = [Point(rng.random(), rng.random()) for _ in range(n // 2)]
        pts = spots + spots[: n // 6] + spots[: n // 12] + [Point(rng.random(), rng.random()) for _ in range(n // 4)]
        out.append(Configuration(pts))
    # one far outlier
    for n in (12, 40, 160):
        pts = [Point(rng.random(), rng.random()) for _ in range(n - 1)]
        out.append(Configuration(pts + [Point(rng.uniform(-1e3, 1e3), 1e3)]))
    # an m-gon with one vertex parked on its center: the center's pull is
    # exactly its multiplicity; jittered, it moves either side of it
    for m in (9, 12, 16, 24, 40, 80, 160):
        for jitter in (0.0, 0.5e-9):
            center = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
            phase = rng.uniform(0, TAU)
            pts = [on_ray(center, phase + j * TAU / m + rng.uniform(-jitter, jitter), 1.0) for j in range(1, m)]
            out.append(Configuration(pts + [center]))
    out += [uniform_configuration(rng, n) for n in (9, 20, 60, 160)]
    out += [_offset(config) for config in out[::3]]
    half = [Point(rng.uniform(0.05, 1), rng.uniform(-1, 1)) for _ in range(320)]
    out += [Configuration(half + [Point(-p.x, p.y) for p in half]), uniform_configuration(rng, 640)]
    # near-flat distance sums: random angles on a circle and on an
    # ellipse, and an (n-1)-gon with one robot inside
    for n in (80, 160):
        circle, ellipse, _, gon = _near_tie_shapes(n)
        out += [circle, ellipse, gon]
    # two robots 1e-7 of the diameter apart, beyond the merge slack: the
    # r_min floor falls below the eps_angle knee
    spots = [Point(rng.random(), rng.random()) for _ in range(99)]
    out.append(Configuration(spots + [Point(spots[0].x + 1e-7, spots[0].y)]))
    return [config for config in out if not config.is_linear]


def test_cell_bounds_hold_and_keep_every_decision():
    checked = found = view_decided = below_knee = 0
    for config in _large_inputs():
        lower, complete = _tree_bounds(config)
        below_knee += lower[0][1] < symmetry._COORD_DRIFT * config.diameter / config.tol.eps_angle
        for loc, (pull, r_min, total), whole in zip(config.locations, lower, complete, strict=True):
            c = loc.location
            row = [dist(c, q) for q in config.points]
            exact = left_sum(row)
            assert pull <= _pull(config, c), (config, c)
            assert r_min <= min(d for d in row if d > config.merge_slack), (config, c)
            assert total <= exact and whole <= exact, (config, c)
            checked += 1
        # the reference runs every order at every location, O(n^3); above
        # n = 80 the reference that measures every location exactly, the
        # work both bounds prune, stands in for it
        expected = _detect_reference(config) if config.n <= 80 else detect_quasi_regular_reference(config)
        elected = outcome(elect_reference, config)
        for path in ("tree", "pass"):
            assert _on_path(config, path, detect_quasi_regular) == (expected, True), (config, path)
            assert _on_path(config, path, lambda copy: outcome(_elect_safe_point, copy)) == (elected, True), (config, path)
        found += expected is not None
        safe = safe_points_reference(config)
        if safe:
            nearest = min(safe, key=lambda p: (-config.multiplicity_at(p), left_sum(dist(p, q) for q in config.points)))
            view_decided += elected != bits(nearest)
    assert checked > 3500 and found >= 16 and view_decided >= 4 and below_knee >= 1


_signed = st.one_of(st.floats(-1.0, 1.0, allow_nan=False), st.sampled_from([0.0, -0.0]))


@st.composite
def _pair_pass_inputs(draw):
    """Robots with stacks, twins whose zero coordinates change sign, robots
    about the merge slack from another, and all of it offset by 1e6 times
    the diameter."""
    base = draw(st.lists(st.builds(Point, _signed, _signed), min_size=2, max_size=14))
    points = list(base)
    extras = st.tuples(st.integers(0, len(base) - 1), st.sampled_from(("stack", "flip", "near")), st.floats(-3.0, 3.0))
    for k, kind, t in draw(st.lists(extras, max_size=8)):
        x, y = base[k]
        if kind == "stack":
            points.append(base[k])
        elif kind == "flip":
            points.append(Point(-x if x == 0.0 else x, -y if y == 0.0 else y))
        else:
            points.append(Point(x + t * 1e-9, y - t * 1e-9))
    points = draw(st.permutations(points))
    if draw(st.booleans()):
        shift = 1e6 * Configuration(points).diameter
        points = [Point(x + shift, y - 0.5 * shift) for x, y in points]
    return Configuration(points)


@given(_pair_pass_inputs())
@settings(max_examples=300, deadline=None)
def test_pair_pass_matches_every_rays_row(config):
    # the pull, r_min and distance sum that detect_quasi_regular and the
    # class-A election take from each location's Rays row, bit for bit,
    # from the pair pass and from the row itself; the election's sum also
    # from one pass of hypot before any row is built, and from a row whose
    # sums are not taken yet.  All are read before the pair pass runs, as
    # the exact reads take its entries once it has.
    locations = range(len(config.locations))
    passes = [config._sum_at(k) for k in locations]
    for loc in config.locations:
        symmetry.Rays.of(config, loc.location)
    unsummed = [config._sum_at(k) for k in locations]
    from_rows = [config._sums_at(k) for k in locations]
    for loc, *sums, total, row_total in zip(
        config.locations, config._pair_sums, from_rows, passes, unsummed, strict=True
    ):
        c = loc.location
        rays = symmetry.Rays(config, c)
        pull_x = pull_y = 0.0
        for i in rays.off:
            x, y = config.points[i]
            pull_x += (x - c.x) / rays.dists[i]
            pull_y += (y - c.y) / rays.dists[i]
        expected = (math.hypot(pull_x, pull_y).hex(), rays.r_min.hex(), _plain_sum(rays.dists).hex())
        for pull, r_min, sum_ in sums:
            assert (pull.hex(), r_min.hex(), sum_.hex()) == expected, (config, c)
        assert total.hex() == row_total.hex() == expected[2], (config, c)


# --- frame images seeded from their base ---------------------------------------------
#
# A frame image whose base has computed its exact pair sums takes its
# location bounds from them (``configuration._seed_image_sums``).  Every
# seeded bound must stay at or below the image's own exact value, and the
# image must classify and decide as an unseeded copy of it does.


@st.composite
def _frame_cases(draw):
    """A base of 3 to 64 robots, uniform, near-collinear or a regular
    polygon, with stacks and robots about the merge slack from another,
    scaled by 1e-80 to 1e85 and perhaps offset by up to 1e6 times its
    diameter D, with its pair sums computed; and a frame from
    ``LocalFrame.random``, or one of scale 0.5 or 2 translated by +-2D."""
    n = draw(st.integers(3, 64))
    rng = random.Random(draw(st.integers(0, 2**32)))
    shape = draw(st.sampled_from(("uniform", "collinear", "polygon")))
    if shape == "uniform":
        pts = [Point(rng.random(), rng.random()) for _ in range(n)]
    elif shape == "collinear":
        tilt = 10.0 ** rng.uniform(-12, -3)
        pts = [Point(t, 0.3 * t + tilt * rng.uniform(-1, 1)) for t in (rng.random() for _ in range(n))]
    else:
        pts = [on_ray(Point(0.2, -0.1), rng.uniform(0, TAU) + j * TAU / n, 1.0) for j in range(n)]
    for _ in range(draw(st.integers(0, n // 2))):
        pts[rng.randrange(n)] = pts[rng.randrange(n)]
    # robots about the merge slack from another, which the guards weigh
    for t in draw(st.lists(st.floats(-3.0, 3.0), max_size=3)):
        x, y = pts[rng.randrange(n)]
        pts[rng.randrange(n)] = Point(x + t * 1e-9, y - t * 1e-9)
    scale = 10.0 ** draw(st.floats(-80, 85))
    pts = [Point(x * scale, y * scale) for x, y in pts]
    if draw(st.booleans()):
        shift = draw(st.floats(1.0, 1e6)) * Configuration(pts).diameter
        pts = [Point(x + shift, y - 0.5 * shift) for x, y in pts]
    base = Configuration(pts)
    base._pair_sums
    span = 2.0 * base.diameter
    kind = draw(st.sampled_from(("random", 0.5, 2.0)))
    if kind == "random":
        frame = LocalFrame.random(rng, base.diameter)
    else:
        signs = draw(st.tuples(st.sampled_from((-1.0, 1.0)), st.sampled_from((-1.0, 1.0))))
        frame = LocalFrame(rng.uniform(0, TAU), kind, Point(signs[0] * span, signs[1] * span))
    return base, frame


@given(_frame_cases())
@settings(max_examples=300, deadline=None)
def test_seeded_image_bounds_never_exceed_its_own_sums(case):
    base, frame = case
    image = frame.apply_config(base)
    seeded = vars(image).get("_lower_sums")
    if seeded is None:
        return
    own = Configuration(image.points, image.tol)
    assert [loc.indices for loc in own.locations] == [loc.indices for loc in base.locations]
    for bound, exact in zip(seeded, own._pair_sums, strict=True):
        assert all(b <= e for b, e in zip(bound, exact)), (base, frame, bound, exact)


def _hexed(value):
    """A class detail or a decision with every float as ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [_hexed(v) for v in value]
    if dataclasses.is_dataclass(value):
        return {f.name: _hexed(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


def test_seeded_image_decides_as_an_unseeded_copy():
    rng = random.Random(36)
    bases = [uniform_configuration(rng, n) for n in (5, 12, 20, 40, 64)]
    # regular polygons, and polygons with one vertex moved onto the center
    for k, parked in ((6, 0), (17, 0), (40, 0), (8, 1), (25, 1)):
        center, phase = Point(rng.uniform(-1, 1), rng.uniform(-1, 1)), rng.uniform(0, TAU)
        gon = [on_ray(center, phase + j * TAU / k, 1.0) for j in range(parked, k)]
        bases.append(Configuration(gon + [center] * parked))
    tags = []
    for base in bases:
        tags.append(classify(base).tag)
        assert "_pair_sums" in vars(base)
        for _ in range(4):
            image = LocalFrame.random(rng, base.diameter).apply_config(base)
            assert "_lower_sums" in vars(image)
            copy = Configuration(image.points, image.tol)
            assert _hexed(classify(image)) == _hexed(classify(copy)), base
            assert _hexed(gathering.decide(image)) == _hexed(gathering.decide(copy)), base
            assert "_pair_sums" not in vars(image) and "_pair_sums" in vars(copy)
    assert tags == [TAG_ASYMMETRIC] * 5 + [TAG_QREGULAR] * 5


def test_no_seeding_without_exact_distinct_locations():
    # a class-M base computes no pair sums; a stacked robot a sliver off its
    # location's point, or two locations within twice the image's merge
    # slack, leave the image to run its own pass
    rng = random.Random(37)
    frame = LocalFrame.random(rng, 1.0)
    plain = [Point(rng.random(), rng.random()) for _ in range(9)]
    multiple = Configuration(plain + plain[:1])
    assert classify(multiple).tag == TAG_MULTIPLE and "_pair_sums" not in vars(multiple)
    assert "_lower_sums" not in vars(frame.apply_config(multiple))
    control = Configuration(plain + plain[:2])
    slack = control.merge_slack
    sliver = Configuration(plain + [plain[0], Point(plain[1].x + 0.25 * slack, plain[1].y)])
    close = Configuration(plain + [Point(plain[0].x + 1.5 * slack, plain[0].y)])
    for base, locations, seeds in ((control, 9, True), (sliver, 9, False), (close, 10, False)):
        assert classify(base).tag in (TAG_ASYMMETRIC, TAG_QREGULAR) and "_pair_sums" in vars(base)
        assert len(base.locations) == locations
        image = frame.apply_config(base)
        assert ("_lower_sums" in vars(image)) is seeds, base
        copy = Configuration(image.points, image.tol)
        assert _hexed(gathering.decide(image)) == _hexed(gathering.decide(copy)), base


# The pull bound above ``_TREE_FROM`` robots, from convexity of the distance
# sum f: |P_c| - mu_c >= (f(c) - f(y)) / |c - y| - delta_c at any y != c,
# with delta_c = 2 * (mu_c - 1).  It must hold for the computed pull, with
# the tree's sum bound at c, at the centroid, at a robot and at a random
# point.


@given(_pair_pass_inputs(), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
@example(Configuration([Point(0.0, 0.0)] * 3 + [Point(1.0, 0.0), Point(0.0, 1.0), Point(-0.5, -0.25)]), 0.0, 0.0)
@example(Configuration([Point(0.0, 0.0), Point(2e-10, 0.0), Point(0.0, -1e-10), Point(1.0, 0.0), Point(0.0, 1.0)]), 0.5, 0.5)
@settings(max_examples=300, deadline=None)
def test_convexity_pull_bound_never_exceeds_the_pull(config, tx, ty):
    centers = occupied_points(config)
    walks = geometry._CellBounds(config.points, centers, configuration._LEAF_SIZE)
    sums = [walks.refine(k, math.inf) for k in range(len(centers))]
    g = walks.centroid
    shift = config.diameter
    for y in (g, config.points[0], Point(g.x + tx * shift, g.y + ty * shift)):
        above = configuration._sum_above(config.points, y)
        for loc, total in zip(config.locations, sums):
            c = loc.location
            gap = math.hypot(c.x - y.x, c.y - y.y)
            if gap == 0.0:
                continue
            pull = symmetry.Rays(config, c)._sums[0]
            mu = loc.multiplicity
            weak = configuration._convexity_pull(total, above, gap, 2 - mu, config.n)
            assert weak <= pull, (config, c, y)


# --- ray clustering against the reference ----------------------------------------------


def _cluster_inputs():
    """(values, slack, modulus) triples: random values with duplicates,
    one-ulp neighbours, values at 0 and just below the modulus, clusters
    that wrap across zero, and slack 0."""
    rng = random.Random(83)
    out = [([], 0.0, TAU), ([0.1] * 3 + [math.nextafter(0.1, 1.0)] * 7, 0.0, TAU)]
    for _ in range(6000):
        modulus = rng.choice((TAU, TAU / rng.randint(2, 9), 1.0))
        slack = rng.choice((0.0, 0.0, 1e-12, 1e-9, 0.01 * modulus, rng.uniform(0.0, 0.3) * modulus))
        values: list[float] = []
        for _ in range(rng.randint(1, 14)):
            kind = rng.randrange(6)
            if kind == 0 and values:
                values.append(rng.choice(values))
            elif kind == 1 and values:
                values.append(min(math.nextafter(rng.choice(values), modulus), math.nextafter(modulus, 0.0)))
            elif kind == 2:
                values.append(rng.choice((0.0, 5e-324, math.nextafter(modulus, 0.0), modulus * (1 - 1e-16))))
            elif kind == 3:
                values.append(rng.uniform(0.0, 2.0 * slack + 1e-15) % modulus)
            elif kind == 4:
                values.append((modulus - rng.uniform(0.0, 2.0 * slack + 1e-15)) % modulus)
            else:
                values.append(rng.uniform(0.0, modulus))
        out.append((values, slack, modulus))
    return out


def test_circular_clusters_matches_reference():
    wrapped = 0
    for values, slack, modulus in _cluster_inputs():
        got = symmetry.circular_clusters(values, slack, modulus)
        expected = circular_clusters_reference(values, slack, modulus)
        assert [(m.hex(), g) for m, g in got] == [(m.hex(), g) for m, g in expected], (values, slack, modulus)
        wrapped += any(mean < 0.0 for mean, _ in expected)
    assert wrapped > 500
