import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from gathersim import Point, Tolerance
from gathersim.errors import DegenerateAngle, EmptyInput
from gathersim.geometry import (
    TAU,
    _plain_sum,
    angle_cw,
    dist,
    on_open_segment,
    rotate_cw,
    smallest_enclosing_circle,
)
from helpers import brute_extreme_points, brute_sec, collinear, hull_vertices, on_half_line

coord = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)
points = st.builds(Point, coord, coord)


def test_dist_examples():
    assert dist(Point(0, 0), Point(3, 4)) == 5
    assert dist(Point(1, 1), Point(1, 1)) == 0
    assert dist(Point(0, 0), Point(1, 1)) == pytest.approx(math.sqrt(2))


def test_plain_sum_rounds_each_step():
    # a compensated sum (the builtin's from Python 3.12) gives 1.0
    assert _plain_sum([1e16, 1.0, -1e16]) == 0.0
    assert _plain_sum([]) == 0.0 and str(_plain_sum([-0.0])) == "0.0"


def test_angle_cw_examples():
    o = Point(0, 0)
    assert angle_cw(Point(1, 0), o, Point(0, -1)) == pytest.approx(math.pi / 2)
    assert angle_cw(Point(1, 0), o, Point(0, 1)) == pytest.approx(3 * math.pi / 2)
    assert angle_cw(Point(1, 0), o, Point(-1, 0)) == pytest.approx(math.pi)
    assert angle_cw(Point(1, 0), o, Point(1, 0)) == 0.0


def test_angle_cw_degenerate():
    with pytest.raises(DegenerateAngle):
        angle_cw(Point(0, 0), Point(0, 0), Point(1, 0))
    with pytest.raises(DegenerateAngle):
        angle_cw(Point(1, 0), Point(0, 0), Point(0, 0))


@given(points, points, points)
@settings(max_examples=200, deadline=None)
def test_angle_cw_complement(u, c, v):
    if dist(u, c) < 1e-3 or dist(v, c) < 1e-3:
        return
    a = angle_cw(u, c, v)
    b = angle_cw(v, c, u)
    assert a + b == pytest.approx(TAU) or a + b == pytest.approx(0, abs=1e-9)


def test_angle_cw_similarity_invariance():
    from helpers import Similarity

    rng = random.Random(9)
    for _ in range(100):
        u = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        c = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        v = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if dist(u, c) < 1e-3 or dist(v, c) < 1e-3:
            continue
        sim = Similarity.random(rng)
        theta = angle_cw(u, c, v)
        mapped = angle_cw(sim(u), sim(c), sim(v))
        delta = abs(mapped - theta)
        assert min(delta, TAU - delta) <= 1e-9


@given(points, points, points)
@settings(max_examples=200, deadline=None)
def test_angle_cw_reflection_chirality(u, c, v):
    if dist(u, c) < 1e-3 or dist(v, c) < 1e-3:
        return
    theta = angle_cw(u, c, v)
    mirror = angle_cw(Point(u.x, -u.y), Point(c.x, -c.y), Point(v.x, -v.y))
    assert mirror == pytest.approx((TAU - theta) % TAU, abs=1e-9)


def test_on_open_segment_examples():
    tol = Tolerance()
    assert on_open_segment(Point(1, 0), Point(0, 0), Point(2, 0), tol)
    assert not on_open_segment(Point(0, 0), Point(0, 0), Point(2, 0), tol)
    assert not on_open_segment(Point(1, 0.1), Point(0, 0), Point(2, 0), tol)


def test_on_half_line_examples():
    tol = Tolerance()
    assert on_half_line(Point(3, 0), Point(0, 0), Point(1, 0), tol)
    assert not on_half_line(Point(0, 0), Point(0, 0), Point(1, 0), tol)
    assert not on_half_line(Point(-1, 0), Point(0, 0), Point(1, 0), tol)


@given(points, points)
@settings(max_examples=100, deadline=None)
def test_on_half_line_excludes_origin(origin, through):
    assert not on_half_line(origin, origin, through)


def test_sec_examples():
    c = smallest_enclosing_circle([Point(1, 1), Point(-1, 1), Point(-1, -1), Point(1, -1)])
    assert c.center == pytest.approx((0, 0), abs=1e-12)
    assert c.radius == pytest.approx(math.sqrt(2))
    c = smallest_enclosing_circle([Point(0, 0)])
    assert c == (Point(0, 0), 0)
    c = smallest_enclosing_circle([Point(0, 0), Point(4, 0), Point(1, 1)])
    assert c.center == pytest.approx((2, 0), abs=1e-12)
    assert c.radius == pytest.approx(2)
    with pytest.raises(EmptyInput):
        smallest_enclosing_circle([])


def test_sec_matches_brute_force():
    rng = random.Random(42)
    for _ in range(150):
        pts = [Point(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(rng.randint(1, 10))]
        got = smallest_enclosing_circle(pts)
        center, radius = brute_sec(pts)
        scale = max(radius, 1e-9)
        assert abs(got.radius - radius) <= 1e-9 * scale
        assert dist(got.center, center) <= 1e-6 * scale
        # every point enclosed
        assert all(dist(got.center, p) <= got.radius * (1 + 1e-9) + 1e-12 for p in pts)


def test_sec_deterministic():
    pts = [Point(i * 0.37 % 1, (i * i * 0.11) % 1) for i in range(9)]
    assert smallest_enclosing_circle(pts) == smallest_enclosing_circle(list(reversed(pts)))


def test_hull_examples():
    assert set(hull_vertices([Point(0, 0), Point(1, 0), Point(2, 0), Point(3, 0)])) == {
        Point(0, 0),
        Point(3, 0),
    }
    assert set(hull_vertices([Point(0, 0), Point(2, 0), Point(1, 1), Point(1, 0.1)])) == {
        Point(0, 0),
        Point(2, 0),
        Point(1, 1),
    }
    assert hull_vertices([Point(0, 0)]) == [Point(0, 0)]
    with pytest.raises(EmptyInput):
        hull_vertices([])


def test_hull_matches_orientation_oracle():
    rng = random.Random(7)
    for _ in range(120):
        pts = [
            Point(round(rng.uniform(-5, 5), 3), round(rng.uniform(-5, 5), 3))
            for _ in range(rng.randint(1, 9))
        ]
        assert set(hull_vertices(pts)) == brute_extreme_points(pts)


def test_rotate_cw_examples():
    assert rotate_cw(Point(1, 0), Point(0, 0), math.pi / 2) == pytest.approx((0, -1), abs=1e-12)
    got = rotate_cw(Point(0, 0), Point(2, 0), math.pi / 4)
    assert got == pytest.approx((2 - math.sqrt(2), math.sqrt(2)))
    assert rotate_cw(Point(5, 5), Point(5, 5), 1.0) == Point(5, 5)


@given(points, points, st.floats(min_value=1e-6, max_value=TAU - 1e-6))
@settings(max_examples=200, deadline=None)
def test_rotate_cw_inverse(p, c, theta):
    back = rotate_cw(rotate_cw(p, c, theta), c, TAU - theta)
    assert dist(back, p) <= 1e-9 * max(1.0, dist(p, c))


@given(points, points, st.floats(min_value=0, max_value=TAU - 1e-9))
@settings(max_examples=200, deadline=None)
def test_rotate_cw_preserves_radius_and_angle(p, c, theta):
    if dist(p, c) < 1e-3:
        return
    q = rotate_cw(p, c, theta)
    assert dist(q, c) == pytest.approx(dist(p, c), rel=1e-12)
    if theta > 1e-6 and theta < TAU - 1e-6:
        assert angle_cw(p, c, q) == pytest.approx(theta, abs=1e-6)


def test_collinear_examples():
    assert collinear([Point(0, 0), Point(1, 0), Point(5, 0)])
    assert not collinear([Point(0, 0), Point(1, 0), Point(0, 1)])
    assert collinear([Point(0, 0), Point(0, 0)])
