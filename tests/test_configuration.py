import json
import math
import random
from collections import Counter
from functools import cached_property
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gathersim import (
    Configuration,
    Point,
    classify,
    is_gathered,
    median_interval,
    moving_set,
    safe_points,
    symmetry,
)
from gathersim import configuration, geometry
from gathersim.configuration import (
    TAG_ASYMMETRIC,
    TAG_BIVALENT,
    TAG_L1W,
    TAG_L2W,
    TAG_MULTIPLE,
    TAG_QREGULAR,
    _assert_asymmetric,
    _elect_safe_point,
    _farthest_pairs,
    _hull_candidates,
)
from gathersim.errors import AsymmetryViolated, GatherError, NotLinear, OutOfScale
from gathersim.generators import (
    bivalent_configuration,
    collinear_configuration,
    construct_quasi_regular,
    multiplicity_configuration,
    symmetric_configuration,
    uniform_configuration,
)
from gathersim.geometry import TAU, Tolerance, ccw_angle_of, dist
from gathersim.simulator import LocalFrame
from helpers import Similarity, collinear, farthest_pair, mixed_configuration, on_ray
from references import (
    bits,
    diameter_reference,
    elect_reference,
    farthest_pair_reference,
    farthest_pairs_reference,
    is_safe_unpruned,
    linear_endpoints_reference,
    location_dists_reference,
    locations_reference,
    locations_table_reference,
    outcome,
    safe_points_reference,
)


def test_distinct_locations_examples():
    locs = Configuration([(0, 0), (0, 0), (1, 0)]).locations
    assert [(l.location, l.multiplicity) for l in locs] == [(Point(0, 0), 2), (Point(1, 0), 1)]
    locs = Configuration([(5, 5)]).locations
    assert [(l.location, l.multiplicity) for l in locs] == [(Point(5, 5), 1)]
    locs = Configuration([(0, 0), (1e-12, 0), (1, 0)]).locations
    assert sorted(l.multiplicity for l in locs) == [1, 2]


def test_multiplicities_sum_to_n():
    rng = random.Random(1)
    for _ in range(50):
        config = mixed_configuration(rng, rng.randint(1, 12))
        assert sum(l.multiplicity for l in config.locations) == config.n


def test_configuration_validation():
    with pytest.raises(ValueError, match="at least one robot"):
        Configuration([])
    # the first point with a non-finite coordinate is named
    for pts, bad in [
        ([(float("nan"), 0)], "Point(x=nan, y=0.0)"),
        ([(0, float("inf"))], "Point(x=0.0, y=inf)"),
        ([(0, 0), (2, float("nan"))], "Point(x=2.0, y=nan)"),
        ([(0, 0), [float("inf"), 3]], "Point(x=inf, y=3.0)"),
        ([(0, 0), (1, 1), Point(4.0, -math.inf)], "Point(x=4.0, y=-inf)"),
        ([(1, 2), (-math.inf, math.nan), (math.nan, 0)], "Point(x=-inf, y=nan)"),
    ]:
        with pytest.raises(ValueError) as caught:
            Configuration(pts)
        assert str(caught.value) == f"non-finite coordinate: {bad}"


def test_configuration_stores_float_points():
    # ints, lists, tuples, Points and a generator of them are all accepted,
    # and every coordinate is stored as a float in a Point
    pairs = [(1, 2), [3, -4.5], Point(5, 6), Point(-0.0, 7.25), (8.0, 9)]
    for given in (pairs, tuple(pairs), iter(pairs)):
        config = Configuration(given)
        assert config.points == ((1.0, 2.0), (3.0, -4.5), (5.0, 6.0), (0.0, 7.25), (8.0, 9.0))
        assert all(type(p) is Point and type(p.x) is float and type(p.y) is float for p in config.points)
        assert bits(config.points[3]) == bits((-0.0, 7.25))
        assert config.n == 5
        # a Point of floats is kept as it is; one of ints is not
        assert config.points[3] is pairs[3] and config.points[2] is not pairs[2]
    config = Configuration([Point(1, 2), Point(3.0, 4)])
    assert all(type(p.x) is float and type(p.y) is float for p in config.points)


# The public lazy attributes; the benchmark's tracer reports each one.
_LAZY = {
    Configuration: {
        "diameter",
        "farthest_pair",
        "resolution",
        "merge_slack",
        "locations",
        "location_of",
        "is_linear",
        "linear_endpoints",
        "cls",
    },
    symmetry.Rays: {"angles", "index", "at_center"},
}


def test_lazy_attributes_are_cached_properties():
    for cls, names in _LAZY.items():
        public = {
            name
            for name, value in vars(cls).items()
            if not name.startswith("_") and isinstance(value, (property, cached_property))
        }
        assert public == names, cls
        for name in names:
            assert callable(vars(cls)[name].func), name


def test_lazy_attributes_compute_once(monkeypatch):
    calls = Counter()

    def counted(key, func):
        def wrapper(obj):
            calls[key, id(obj)] += 1
            return func(obj)

        return wrapper

    for cls in _LAZY:
        for name, prop in vars(cls).items():
            if isinstance(prop, cached_property):
                monkeypatch.setattr(prop, "func", counted(name, prop.func))
    plane = Configuration([(0, 0), (0, 0), (3, 1), (1, 4), (-2, 2)])
    line = Configuration([(0, 0), (1, 1), (1, 1), (3, 3)])
    # class A, every location one point: what a frame image's election reads
    asymmetric = Configuration([(0, 0), (3, 0), (0, 4), (1, 1)])
    for config, names in (
        (plane, _LAZY[Configuration] - {"linear_endpoints"}),
        (line, _LAZY[Configuration]),
        (asymmetric, _LAZY[Configuration] - {"linear_endpoints"} | {"_election_seed"}),
    ):
        names = names | {"_distinct", "_scan", "_farthest", "_image_seed", "_lower_sums", "_pair_sums", "_sum_walks", "_r_floor"}
        for _ in range(2):
            for name in sorted(names):
                getattr(config, name)
        assert {key: count for (key, obj), count in calls.items() if obj == id(config)} == dict.fromkeys(names, 1)
    rays = symmetry.Rays.of(plane, plane.locations[0].location)
    assert rays.built_index() is None and rays.built_index() is None
    assert not {"angles", "index", "at_center"} & set(vars(rays))
    for _ in range(2):
        for name in sorted(_LAZY[symmetry.Rays]):
            getattr(rays, name)
    assert {key: count for (key, obj), count in calls.items() if obj == id(rays)} == dict.fromkeys(_LAZY[symmetry.Rays], 1)
    assert rays.built_index() is rays.index


def test_classify_examples():
    assert classify(Configuration([(0, 0), (0, 0), (1, 0), (1, 0)])).tag == TAG_BIVALENT

    cls = classify(Configuration([(0, 0), (1, 0), (2, 0)]))
    assert cls.tag == TAG_L1W and cls.weber == Point(1, 0)

    cls = classify(Configuration([(0, 0), (1, 0), (3, 0), (4, 0)]))
    assert cls.tag == TAG_L2W
    assert cls.endpoints == (Point(0, 0), Point(4, 0))
    assert cls.midpoint == Point(2, 0)

    cls = classify(Configuration([(1, 1), (-1, 1), (-1, -1), (1, -1)]))
    assert cls.tag == TAG_QREGULAR
    assert cls.weber == pytest.approx((0, 0), abs=1e-9)
    assert cls.qreg == 4

    cls = classify(Configuration([(0, 0), (3, 0), (0, 4), (1, 1)]))
    assert cls.tag == TAG_ASYMMETRIC
    assert cls.elected == Point(1, 1)


def test_classify_small_counts():
    assert classify(Configuration([(2, 3)])).tag == TAG_MULTIPLE
    assert classify(Configuration([(2, 3), (2, 3)])).tag == TAG_MULTIPLE
    assert classify(Configuration([(0, 0), (1, 1)])).tag == TAG_BIVALENT


def test_median_interval_examples():
    assert median_interval(Configuration([(0, 0), (1, 0), (2, 0)])) == (Point(1, 0), Point(1, 0))
    assert median_interval(Configuration([(0, 0), (1, 0), (3, 0), (4, 0)])) == (
        Point(1, 0),
        Point(3, 0),
    )
    assert median_interval(Configuration([(0, 0), (0, 0), (0, 0), (9, 0)])) == (
        Point(0, 0),
        Point(0, 0),
    )
    with pytest.raises(NotLinear):
        median_interval(Configuration([(0, 0), (1, 0), (0, 1)]))


def test_l2w_classification_measures_endpoints_once(monkeypatch):
    original = configuration._farthest_pairs
    calls = []
    monkeypatch.setattr(configuration, "_farthest_pairs", lambda pts: calls.append(pts) or original(pts))
    config = Configuration([(0, 0), (1, 0), (3, 0), (4, 0)])
    cls = classify(config)
    assert cls.tag == TAG_L2W and cls.endpoints == (Point(0, 0), Point(4, 0))
    assert median_interval(config) == (Point(1, 0), Point(3, 0))
    # no two points merged, so the endpoints reuse the diameter's pairs
    assert len(calls) == 1


def test_l2w_endpoints_after_a_merge(monkeypatch):
    # robots within the merge slack of each other share a location, so the
    # endpoints are measured again over the occupied points alone; in the
    # first case the diameter's pair ends at points no location sits on
    original = configuration._farthest_pairs
    calls = []
    monkeypatch.setattr(configuration, "_farthest_pairs", lambda pts: calls.append(pts) or original(pts))
    for pts in (
        [(0, 0), (-1e-11, 0), (1, 0), (3, 0), (4, 0), (4 + 1e-11, 0)],
        [(-1e-11, 0), (0, 0), (1, 0), (3, 0), (4 + 1e-11, 0), (4, 0)],
    ):
        calls.clear()
        config = Configuration(pts)
        assert len(config.locations) == 4 < len(config._distinct[1])
        cls = classify(config)
        assert cls.tag == TAG_L2W
        assert [bits(p) for p in cls.endpoints] == [bits(p) for p in linear_endpoints_reference(config)]
        assert len(calls) == 2


def test_safe_points_examples():
    tri = Configuration([(0, 0), (2, 0), (1, math.sqrt(3))])
    assert len(safe_points(tri)) == 3
    assert safe_points(Configuration([(0, 0), (0, 0), (1, 0), (1, 0)])) == []
    assert safe_points(Configuration([(0, 0), (1, 0), (3, 0), (4, 0)])) == []


def test_safe_point_guarantees():
    rng = random.Random(2)
    for _ in range(300):
        config = mixed_configuration(rng, rng.randint(3, 12))
        tag = classify(config).tag
        safe = safe_points(config)
        if not config.is_linear:
            assert safe, f"non-linear configuration without safe point: {config}"
        if tag in (TAG_BIVALENT, TAG_L2W):
            assert safe == []


def test_is_gathered_examples():
    config = Configuration([(5, 5), (5, 5), (5, 5), (0, 0)])
    cls = classify(config)
    assert cls.tag == TAG_MULTIPLE and cls.elected == Point(5, 5)
    moving = moving_set(config)
    assert is_gathered(config, [True, True, True, False], moving)

    config2 = Configuration([(5, 5), (6, 6), (0, 0)])
    assert not is_gathered(config2, [True, True, False], moving_set(config2))

    config3 = Configuration([(5, 5)] * 4)
    assert is_gathered(config3, [True] * 4, moving_set(config3))


def test_partition_and_linear_structure():
    rng = random.Random(3)
    for _ in range(600):
        config = mixed_configuration(rng, rng.randint(1, 12))
        cls = classify(config)
        locs = config.locations
        mults = sorted(l.multiplicity for l in locs)
        # definitional consistency of the assigned tag
        if cls.tag == TAG_BIVALENT:
            assert len(locs) == 2 and mults[0] == mults[1] == config.n // 2
        else:
            assert not (len(locs) == 2 and mults[0] == mults[1])
        if cls.tag == TAG_MULTIPLE:
            assert mults.count(mults[-1]) == 1
        if cls.tag in (TAG_L1W, TAG_L2W):
            assert config.is_linear
            lo, hi = median_interval(config)
            assert (dist(lo, hi) <= config.merge_slack) == (cls.tag == TAG_L1W)
        if cls.tag in (TAG_QREGULAR, TAG_ASYMMETRIC):
            assert not config.is_linear
        # structure of linear configurations
        if len(locs) == 2:
            assert cls.tag in (TAG_BIVALENT, TAG_MULTIPLE)
        if config.is_linear and len(locs) == 3:
            assert cls.tag in (TAG_MULTIPLE, TAG_L1W)
        if cls.tag == TAG_L2W:
            assert len(locs) >= 4


def test_classify_total_on_knife_edge_inputs():
    # jitters at the coincidence threshold, near-bivalent splits and
    # near-collinear strips must classify without raising
    rng = random.Random(5)
    for _ in range(400):
        kind = rng.randrange(3)
        n = rng.randint(2, 10)
        if kind == 0:
            pts = [
                Point(rng.uniform(-1, 1), 1e-12 * rng.uniform(-1, 1) * rng.choice([1, 1e2, 1e4]))
                for _ in range(n)
            ]
        elif kind == 1:
            m = max(2, n // 2 * 2)
            pts = [Point(0, 0)] * (m // 2) + [Point(1, 0)] * (m // 2)
            pts[0] = Point(rng.uniform(-1, 1) * 1e-8, rng.uniform(-1, 1) * 1e-8)
        else:
            base = [Point(rng.random(), rng.random()) for _ in range(max(2, n // 2))]
            pts = [
                Point(b.x + rng.uniform(-3e-9, 3e-9), b.y + rng.uniform(-3e-9, 3e-9))
                for b in (rng.choice(base) for _ in range(n))
            ]
        config = Configuration(pts)
        cls = classify(config)
        assert cls.tag in ("B", "M", "L1W", "L2W", "QR", "A")
        safe_points(config)


def test_classify_similarity_invariance():
    rng = random.Random(4)
    for _ in range(60):
        config = mixed_configuration(rng, rng.randint(2, 10))
        cls = classify(config)
        sim = Similarity.random(rng)
        image = sim.apply_config(config)
        cls2 = classify(image)
        assert cls2.tag == cls.tag
        slack = 1e-6 * image.diameter
        for attr in ("elected", "weber", "midpoint"):
            a = getattr(cls, attr)
            b = getattr(cls2, attr)
            assert (a is None) == (b is None)
            if a is not None:
                assert dist(sim(a), b) <= slack
        if cls.endpoints is not None:
            images = {sim(cls.endpoints[0]), sim(cls.endpoints[1])}
            for e in cls2.endpoints:
                assert min(dist(e, i) for i in images) <= slack


def _exact_symmetric(rng: random.Random, k: int, trial: int) -> list[Point]:
    """Up to three k-fold orbits, stacked 1-3 deep (the first at least 2),
    around a center holding 0, 1 or 2 robots as ``trial`` counts."""
    center = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
    pts = []
    for orbit in range(rng.randint(1, 3)):
        radius, phase, mult = rng.uniform(0.3, 1.5), rng.uniform(0, TAU), rng.randint(2 if orbit == 0 else 1, 3)
        pts += [on_ray(center, phase + j * TAU / k, radius) for j in range(k) for _ in range(mult)]
    return pts + [center] * (trial % 3)


@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e6, 1e9])
def test_asymmetry_check_runs_at_every_scale(scale):
    # the check must raise on every exactly symmetric input at every scale:
    # orders up to 12, robots on the center, stacked orbits, and a stack
    # whose robots differ in the last bit of one coordinate
    rng = random.Random(6)
    for _ in range(20):
        base = symmetric_configuration(rng, k=rng.choice((2, 3)), orbits=rng.randint(2, 3), with_center=False)
        sim = Similarity(rng.uniform(0, math.tau), scale, rng.uniform(-5, 5) * scale, rng.uniform(-5, 5) * scale)
        with pytest.raises(RuntimeError, match="classified asymmetric"):
            _assert_asymmetric(sim.apply_config(base))
    for trial in range(60):
        base = symmetric_configuration(rng, k=rng.randint(2, 12), orbits=rng.randint(1, 3), with_center=True)
        if trial % 2:
            base = Configuration(_exact_symmetric(rng, rng.randint(2, 12), trial))
        sim = Similarity(rng.uniform(0, math.tau), scale, rng.uniform(-5, 5) * scale, rng.uniform(-5, 5) * scale)
        pts = list(sim.apply_config(base).points)
        if trial % 4 == 1:
            # split the first stack: one robot moves by one ulp in x
            i = next(i for i in range(1, len(pts)) if pts[i] == pts[i - 1])
            pts[i] = Point(math.nextafter(pts[i].x, math.inf), pts[i].y)
            assert pts[i] != pts[i - 1]
        with pytest.raises(RuntimeError, match="classified asymmetric"):
            _assert_asymmetric(Configuration(pts))


def test_class_a_invariants_raise_a_typed_error(monkeypatch):
    # a 6-fold symmetric configuration translated by 1e7 times its
    # diameter: quasi-regularity no longer finds its center, so it reaches
    # class A, where the rotation test still sees the symmetry; the error
    # is typed, and still a RuntimeError for callers that catch that
    base = symmetric_configuration(random.Random(5))
    shift = 1e7 * base.diameter
    far = Configuration([Point(x + shift, y + shift) for x, y in base.points], base.tol)
    with pytest.raises(AsymmetryViolated, match="classified asymmetric but sym=6") as raised:
        classify(far)
    assert isinstance(raised.value, RuntimeError) and isinstance(raised.value, GatherError)
    assert classify(base).tag == TAG_QREGULAR
    monkeypatch.setattr(configuration, "_is_safe", lambda config, k: False)
    with pytest.raises(AsymmetryViolated, match="non-linear configuration without a safe point"):
        _elect_safe_point(Configuration([(0, 0), (3, 0), (0, 4), (1, 1)]))


def _scaled(config, k):
    """The configuration scaled by 2**k, exactly while nothing under- or
    overflows."""
    return Configuration([(math.ldexp(x, k), math.ldexp(y, k)) for x, y in config.points], config.tol)


def _class_bits(cls, k=0):
    """A class's tag, order and points, the points scaled by 2**k, as bits."""
    scale = lambda p: None if p is None else bits(Point(math.ldexp(p.x, k), math.ldexp(p.y, k)))
    ends = None if cls.endpoints is None else tuple(map(scale, cls.endpoints))
    return cls.tag, cls.qreg, scale(cls.elected), scale(cls.weber), ends, scale(cls.midpoint)


_KITE = Configuration([(0, 0), (1, 0), (0, 1), (3, 2)])


def test_classes_are_scale_free_over_the_diameter_range():
    # at the last power of two inside each end of the range every class
    # gives the same doubles, scaled; one more power of two is refused.
    # The second input is quasi-regular of order 2 with an unoccupied
    # center, the kind of class that changed first above the range: this
    # one reads class A once scaled by 1e108
    rng = random.Random(1)
    inputs = [
        _KITE,
        construct_quasi_regular(random.Random(6), m=2, park_deficits=False).config,
        uniform_configuration(rng, 70),
        symmetric_configuration(rng, k=5),
        multiplicity_configuration(rng, 9),
        collinear_configuration(rng, 7, unique_median=True),
    ]
    for config in inputs:
        expected = _class_bits(classify(config))
        low = math.ceil(math.log2(configuration._MIN_DIAMETER / config.diameter))
        high = math.floor(math.log2(configuration._MAX_DIAMETER / config.diameter))
        for k, beyond in ((low, low - 1), (high, high + 1)):
            inside, outside = _scaled(config, k), _scaled(config, beyond)
            assert configuration._MIN_DIAMETER <= inside.diameter <= configuration._MAX_DIAMETER
            assert _class_bits(classify(inside), -k) == expected, (config, k)
            with pytest.raises(OutOfScale):
                classify(outside)
    assert classify(Configuration([(1e-300, 0)] * 3)).tag == TAG_MULTIPLE


def test_stack_split_below_the_resolution_is_one_location():
    # robots on two points a few ulps apart near 1e-80: the diameter is far
    # below the range, yet within the coordinates' resolution, so every
    # robot is within the merge slack of every other and the stack is one
    # class-M location, not out of scale
    x = 1e-80
    y = math.nextafter(math.nextafter(math.nextafter(x, 1.0), 1.0), 1.0)
    config = Configuration([(x, -x)] * 3 + [(y, -x)] * 3)
    assert 0.0 < config.diameter < configuration._MIN_DIAMETER
    assert config.diameter <= config.resolution
    assert len(config.locations) == 1
    assert classify(config).tag == TAG_MULTIPLE


def test_scale_probes_beyond_the_range_raise_a_typed_error():
    # each of these once changed class or raised a bare ZeroDivisionError
    kite = [(x, y) for x, y in _KITE.points]
    probes = [Configuration([(x * scale, y * scale) for x, y in kite]) for scale in (1e-110, 1e170)]
    uniform = uniform_configuration(random.Random(1), 70)
    probes.append(Configuration([(x * 1e-160, y * 1e-160) for x, y in uniform.points]))
    for seed in range(1, 6):
        config = uniform_configuration(random.Random(seed), 10)
        probes.append(Configuration([(x * 1e-200, y * 1e-200) for x, y in config.points]))
    for config in probes:
        with pytest.raises(OutOfScale, match="diameter"):
            classify(config)


DATA = Path(__file__).parent / "data"


def test_knife_edge_pentagon_classifies_quasi_regular():
    # five robots near a regular pentagon: seen from their Weber point the
    # rays fill the five slots within the angle slack, though consecutive
    # hop angles differ by more than it, so they are quasi-regular of order
    # 5, as they are with a sixth robot on that point; a pairwise view test
    # that is not transitive once reported sym=4 here
    points = json.loads((DATA / "knife_edge_pentagon.json").read_text())["points"]
    config = Configuration(points)
    assert symmetry.symmetricity(config) == 1
    cls = classify(config)
    assert (cls.tag, cls.qreg) == (TAG_QREGULAR, 5)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: the Weber search stops 0.023*D from this start's Weber "
    "point, which has order 2, so the robots classify A",
)
def test_near_collinear_six_robots_classify_quasi_regular():
    # six robots whose rays from w lie in a narrow double cone: w has
    # gradient norm 1.6e-16 and regularity 2 there, so they are QR of
    # order 2 around w
    points = json.loads((DATA / "qr_near_collinear_six.json").read_text())["points"]
    config = Configuration(points)
    w = Point(-0.14560499473012717, -0.8517122251622966)
    assert symmetry.regularity_at(config, w) == 2
    cls = classify(config)
    assert (cls.tag, cls.qreg) == (TAG_QREGULAR, 2)
    assert dist(cls.weber, w) <= 1e-9 * config.diameter


def test_turned_pentagon_reaches_the_asymmetry_check(monkeypatch):
    # the same pentagon with one robot turned by five slacks (5e-9) about
    # the Weber point: seen from the new Weber point its residue of order 5
    # lies 1.2 to 3.1 slacks from the others, so the structure test rejects
    # every order and class A runs the asymmetry check
    checked = []
    check = configuration._assert_asymmetric
    monkeypatch.setattr(configuration, "_assert_asymmetric", lambda config: checked.append(config) or check(config))
    config = Configuration(json.loads((DATA / "turned_pentagon.json").read_text())["points"])
    assert symmetry.symmetricity(config) == 1
    assert classify(config).tag == TAG_ASYMMETRIC
    assert checked == [config]


def test_center_robot_moved_within_the_merge_slack():
    # many stacked k-fold orbits around one robot, moved off the center by
    # less than the merge slack: the centroid moves by a share of that, so
    # the orbits still look symmetric about it, but the location that
    # quasi-regularity tests is the moved robot, and the orbits are not
    # symmetric about that; the check must rotate about the location
    rng = random.Random(9)
    for _ in range(40):
        k = rng.randint(2, 6)
        center = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
        pts = []
        for _ in range(rng.randint(5, 12)):
            radius, phase, mult = rng.uniform(0.3, 1.5), rng.uniform(0, TAU), rng.randint(1, 3)
            pts += [on_ray(center, phase + j * TAU / k, radius) for j in range(k) for _ in range(mult)]
        shift = rng.uniform(0.2, 0.95) * 1e-9 * Configuration(pts).diameter
        config = Configuration(pts + [on_ray(center, rng.uniform(0, TAU), shift)])
        assert classify(config).tag in (TAG_QREGULAR, TAG_ASYMMETRIC)


def test_orbits_that_drift_by_the_window_each_step():
    # two k-gons whose robots each turn by eps_angle/20 to eps_angle/11 more
    # than the one before, out to the middle of the orbit and back: each
    # step stays within a window of eps_angle/10, but summed over a large k
    # the drift passes the ray tests' slack; the window shrinks with k, so
    # these are not taken for symmetric
    rng = random.Random(7)
    for _ in range(40):
        k = rng.randint(23, 40)
        center = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
        drift = rng.uniform(0.5, 0.9) * 1e-10
        pts = []
        for _ in range(2):
            phase, radius = rng.uniform(0, TAU), rng.uniform(0.5, 1.5)
            pts += [on_ray(center, phase + j * TAU / k + drift * min(j, k - j), radius) for j in range(k)]
        assert classify(Configuration(pts)).tag in (TAG_QREGULAR, TAG_ASYMMETRIC)


@st.composite
def _nearly_symmetric(draw):
    """A symmetric or quasi-regular instance with one robot moved by r*D,
    r log-uniform in [1e-12, 1e-6], in a random direction, under the
    default tolerances or looser or tighter ones."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        base = symmetric_configuration(rng, k=rng.randint(2, 12), orbits=rng.randint(1, 3))
    else:
        base = construct_quasi_regular(rng, m=rng.randint(2, 8)).config
    pts = list(base.points)
    i = draw(st.integers(0, len(pts) - 1))
    r = 10.0 ** draw(st.floats(-12, -6))
    theta = draw(st.floats(0, TAU))
    pts[i] = on_ray(pts[i], theta, r * base.diameter)
    eps = draw(st.sampled_from((1e-9, 1e-12, 1e-6)))
    return Configuration(pts, Tolerance(eps, eps))


@given(_nearly_symmetric())
@settings(max_examples=300, deadline=None)
def test_classify_is_total_near_symmetry(config):
    assert classify(config).tag in configuration.ALL_TAGS


# --- the distance table and class-A classification against the reference -----------


def test_pair_dists_equal_dist_both_ways():
    rng = random.Random(7)
    for scale in (1e-9, 1.0, 1e6):
        for _ in range(20):
            config = mixed_configuration(rng, rng.randint(1, 12))
            points = [Point(p.x * scale, p.y * scale) for p in config.points]
            config = Configuration(points)
            for loc in config.locations:
                p = loc.location
                row = symmetry.Rays.of(config, p).dists
                assert [d.hex() for d in row] == [dist(p, q).hex() for q in points]
                assert [d.hex() for d in row] == [dist(q, p).hex() for q in points]


def _polygon(rng, k):
    phase = rng.choice((0.0, rng.uniform(0, math.tau)))
    return [Point(math.cos(phase + j * math.tau / k), math.sin(phase + j * math.tau / k)) for j in range(k)]


def _ulp_cluster(rng, p, size):
    """Points a few ulps around p, so their distances to far points differ in the last bits only."""
    out = []
    for _ in range(size):
        x, y = p
        for _ in range(rng.randint(0, 4)):
            x = math.nextafter(x, rng.choice((-math.inf, math.inf)))
        for _ in range(rng.randint(0, 4)):
            y = math.nextafter(y, rng.choice((-math.inf, math.inf)))
        out.append(Point(x, y))
    return out


def _location_layer_inputs():
    """Point sets where a shortcut around the n x n distance table could slip:
    tied and near-tied diameters, boundary points on or within rounding of
    the hull, stacks, slivers within the merge slack, signed zeros, frame
    images and large offsets."""
    rng = random.Random(12)
    bases = []
    for _ in range(40):
        bases.append([Point(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(rng.randint(1, 30))])
    for k in range(3, 17):
        polygon = _polygon(rng, k)
        bases.append(polygon)
        bases.append(polygon + [Point(0.0, 0.0)] * rng.randint(1, 3) + rng.sample(polygon, k // 2))
        # one corner pushed out, or in, by less than 1e-9 of the diameter
        bent = list(polygon)
        j = rng.randrange(k)
        bump = 1.0 + rng.choice((-1, 1)) * rng.uniform(1e-15, 1e-10)
        bent[j] = Point(bent[j].x * bump, bent[j].y * bump)
        bases.append(bent)
    for cols, rows in ((2, 2), (3, 2), (3, 3), (4, 3), (5, 5), (1, 6)):
        grid = [Point(float(i), float(j)) for i in range(cols) for j in range(rows)]
        grid += rng.sample(grid, rng.randint(0, len(grid)))
        rng.shuffle(grid)
        bases.append(grid)
    for _ in range(30):
        theta = rng.uniform(0, math.tau)
        jitter = rng.choice((0.0, 1e-15, 1e-12, 1e-9, 1e-7))
        line = []
        for _ in range(rng.randint(2, 20)):
            t = rng.choice((rng.uniform(-1, 1), float(rng.randint(-3, 3))))
            s = rng.uniform(-jitter, jitter)
            line.append(Point(t * math.cos(theta) - s * math.sin(theta), t * math.sin(theta) + s * math.cos(theta)))
        bases.append(line)
    for _ in range(30):
        a = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
        b = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
        middle = [Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)) for t in (rng.random() for _ in range(rng.randint(0, 6)))]
        bases.append(_ulp_cluster(rng, a, rng.randint(1, 6)) + middle + _ulp_cluster(rng, b, rng.randint(1, 6)))
    for _ in range(20):
        # stacks with slivers of a fraction of the merge slack, some chained
        centers = [Point(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(rng.randint(2, 5))]
        pts = []
        for c in centers:
            x, y = c
            for _ in range(rng.randint(1, 4)):
                pts.append(Point(x, y))
                x += rng.choice((0.0, rng.uniform(-0.6e-9, 0.6e-9)))
                y += rng.choice((0.0, rng.uniform(-0.6e-9, 0.6e-9)))
        rng.shuffle(pts)
        bases.append(pts)
    signed = [Point(0.0, 1.0), Point(-0.0, 1.0), Point(1.0, 0.0), Point(1.0, -0.0), Point(-0.0, -0.0), Point(0.0, 0.0)]
    for _ in range(6):
        bases.append(rng.sample(signed, rng.randint(2, 6)) + [Point(rng.uniform(-1, 1), 0.0)])
    out = []
    for pts in bases:
        out.append(pts)
        d = diameter_reference(Configuration(pts)) or 1.0
        out.append(LocalFrame.random(rng, d).apply_config(Configuration(pts)).points)
        for offset in (1e3, 1e6):
            theta = rng.uniform(0, math.tau)
            dx, dy = offset * d * math.cos(theta), offset * d * math.sin(theta)
            out.append([Point(p.x + dx, p.y + dy) for p in pts])
    return out


def test_location_layer_matches_table_reference():
    # the hull diameter, the farthest pair, the x-sorted merge and the lazy
    # rows must give the n x n table's doubles, bit for bit
    inputs = _location_layer_inputs()
    merged = 0
    for pts in inputs:
        config = Configuration(pts)
        assert config.diameter.hex() == diameter_reference(config).hex(), pts
        assert [bits(p) for p in config.farthest_pair] == [bits(p) for p in farthest_pair_reference(config)], pts
        locs = [(bits(l.location), l.multiplicity, l.indices) for l in config.locations]
        assert locs == locations_table_reference(config), pts
        rows = [symmetry.Rays.of(config, loc.location).dists for loc in config.locations]
        assert [[d.hex() for d in row] for row in rows] == location_dists_reference(config)
        assert config.is_linear == collinear(config.points, config.tol)
        merged += any(len({p for p in (config.points[i] for i in l.indices)}) > 1 for l in config.locations)
    assert len(inputs) == 696 and merged >= 150


def _location_pass_inputs():
    """(merge slack or None, points) around the location pass's shortcut,
    each in three robot orders: consecutive x gaps at exactly twice the
    merge slack and one ulp of the coordinate either side, equal x, pairs
    and chains within the slack, stacks and signed zeros, and spread-out
    points.

    Two anchors (c - 1, c - 8) and (c + 1, c + 8) fix the diameter and the
    largest coordinate magnitude: at c = 0 the slack is 1e-9 of the
    diameter, and at c = 2^25 - 8 (over 1e6 diameters off the origin) the
    resolution, 2^-24, and every x below is exact on the double grid there.
    The cases at the origin are also translated by 1e6 diameters.
    """
    rng = random.Random(20)

    def around(c):
        anchors = [Point(c - 1.0, c - 8.0), Point(c + 1.0, c + 8.0)]
        slack = Configuration(anchors).merge_slack
        edge = c + 2.0 * slack
        out = []
        for x in (math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)):
            for dy in (0.0, 0.5 * slack, 0.5):
                out.append(anchors + [Point(c, c), Point(x, c + dy)])
                out.append(anchors + [Point(c, c), Point(x, c + dy), Point(c + 0.5, c)])
        out.append(anchors + [Point(c, c + dy) for dy in (0.0, 0.5 * slack, 0.5, 1.0)])
        out.append(anchors + [Point(c, c), Point(c + 0.9 * slack, c), Point(c + 0.25, c + 0.25)])
        out.append(anchors + [Point(c + k * 0.9 * slack, c + k * 0.3 * slack) for k in range(5)])
        out.append(anchors + [Point(c + 0.5, c + k * 0.9 * slack) for k in range(4)] + [Point(c, c)])
        out.append(anchors + [Point(c, c)] * 3 + [Point(c + 0.5, c + 0.5)] * 2 + [Point(c - 0.5, c)])
        spread = [Point(c + rng.uniform(-0.9, 0.9), c + rng.uniform(-7.0, 7.0)) for _ in range(12)]
        out.append(anchors + spread + spread[:3])
        return [(slack, pts) for pts in out]

    origin = around(0.0)
    signed = [Point(0.0, 0.0), Point(-0.0, 0.0), Point(0.5, -0.0), Point(0.5, 0.0), Point(0.0, -0.0), Point(-0.0, -0.0)]
    origin.append((None, [Point(-1.0, -8.0), Point(1.0, 8.0)] + signed))
    origin.append((None, [Point(-1.0, -8.0), Point(1.0, 8.0), Point(0.0, 3.0)] + signed))
    cases = origin + around(2.0**25 - 8.0)
    for _, pts in origin:
        offset = 1e6 * Configuration(pts).diameter
        cases.append((None, [Point(p.x + offset, p.y - offset) for p in pts]))
    out = []
    for slack, pts in cases:
        for _ in range(3):
            out.append((slack, list(pts)))
            pts = rng.sample(pts, len(pts))
    return out


def test_location_pass_matches_union_find():
    # spread-out points skip the union-find; every input must give the
    # union-find's locations, signed zeros and fresh index lists included
    shortcut = merged = 0
    for slack, pts in _location_pass_inputs():
        config = Configuration(pts)
        if slack is not None:
            assert config.merge_slack == slack, pts
        locs = config.locations
        want = locations_reference(config)
        assert locs == want, pts
        assert [bits(loc.location) for loc in locs] == [bits(loc.location) for loc in want], pts
        stacks, distinct = config._distinct
        assert not any(loc.indices is idx for loc in locs for idx in stacks.values())
        window = 2.0 * config.merge_slack
        shortcut += all(q.x - p.x > window for p, q in zip(distinct, distinct[1:]))
        merged += len(locs) < len(distinct)
    assert shortcut >= 40 and merged >= 20, (shortcut, merged)


def _tied_diameters():
    """Point sets whose diameter is reached by several pairs, exactly or up to
    rounding, in several orders and with duplicates."""
    rng = random.Random(8)
    out = []
    for k in (4, 6, 8, 10, 12):
        phase = rng.choice((0.0, rng.uniform(0, math.tau)))
        polygon = [Point(math.cos(phase + j * math.tau / k), math.sin(phase + j * math.tau / k)) for j in range(k)]
        out.append(polygon)
        out.append(polygon + polygon[: k // 2])
    for corners in ([(0, 0), (4, 0), (4, 3), (0, 3)], [(0, 0), (1, 1), (0, 1), (1, 0)], [(0, 0), (2, 0), (1, 0)]):
        pts = [Point(*c) for c in corners]
        for _ in range(4):
            shuffled = pts + rng.sample(pts, rng.randint(0, len(pts)))
            rng.shuffle(shuffled)
            out.append(shuffled)
    out.append([Point(1, 1)] * 3)
    return out


def test_table_farthest_pair_keeps_tie_break():
    for points in _tied_diameters():
        config = Configuration(points)
        a, b, diameter = farthest_pair(points)
        assert config.farthest_pair == (a, b) and config.diameter == diameter
        assert config.is_linear == collinear(points, config.tol)


def test_linearity_divides_by_the_diameter_once_per_point(monkeypatch):
    # the line's length is the cached diameter, and robots stacked on one
    # point share its offset, so each distinct point is tested once
    points = [Point(t, 2.0 * t - 1.0) for t in (0.0, 0.25, 0.5, 1.0) for _ in range(3)]
    config = Configuration(points)
    assert config.diameter == math.hypot(1.0, 2.0)
    hypot, offset = math.hypot, geometry._point_line_offset
    calls = Counter()
    monkeypatch.setattr(math, "hypot", lambda *args: calls.update(["hypot"]) or hypot(*args))
    monkeypatch.setattr(geometry, "_point_line_offset", lambda *args: calls.update(["offset"]) or offset(*args))
    assert config.is_linear
    assert calls == {"offset": 4}


@st.composite
def _rescaled_configurations(draw):
    """A configuration of 2 to 160 robots, uniform in a square, on an
    ellipse or from one of the generator families, optionally translated
    onto a robot with signed-zero copies of it, then scaled by a power of
    ten from 1e-80 to 1e80."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 160))
    family = draw(st.sampled_from(("plain", "ring", "uniform", "collinear", "multiplicity", "bivalent", "symmetric", "qr")))
    if family == "plain":
        config = Configuration([Point(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(n)])
    elif family == "ring":
        a, b = rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)
        config = Configuration([Point(a * math.cos(t), b * math.sin(t)) for t in (rng.uniform(0, TAU) for _ in range(n))])
    elif family == "uniform":
        config = uniform_configuration(rng, max(n, 3))
    elif family == "collinear":
        config = collinear_configuration(rng, n)
    elif family == "multiplicity":
        config = multiplicity_configuration(rng, n)
    elif family == "bivalent":
        config = bivalent_configuration(rng, n + n % 2)
    elif family == "symmetric":
        k = rng.randint(2, 79)
        config = symmetric_configuration(rng, k=k, orbits=rng.randint(1, min(4, 79 // k)))
    else:
        config = construct_quasi_regular(rng, m=rng.randint(2, 32)).config
    pts = list(config.points)
    if draw(st.booleans()):
        ox, oy = pts[draw(st.integers(0, len(pts) - 1))]
        pts = [Point(x - ox, y - oy) for x, y in pts]
        pts += [Point(-0.0, 0.0), Point(0.0, -0.0), Point(-0.0, -0.0)]
        rng.shuffle(pts)
    scale = 10.0 ** draw(st.integers(-80, 80))
    return Configuration([Point(x * scale, y * scale) for x, y in pts])


@pytest.mark.parametrize("all_pairs_up_to, opposite_from", [(0, 0), (configuration._ALL_PAIRS_UP_TO, configuration._OPPOSITE_FROM)])
@given(config=_rescaled_configurations())
@settings(max_examples=150, deadline=None)
def test_farthest_pair_length_is_the_diameter(all_pairs_up_to, opposite_from, config):
    # within_line divides by the diameter as the length of the farthest
    # pair's line: the two must be one double on every diameter path
    with mock.patch.multiple(configuration, _ALL_PAIRS_UP_TO=all_pairs_up_to, _OPPOSITE_FROM=opposite_from):
        assert dist(*config.farthest_pair).hex() == config.diameter.hex()


def _near_collinear_inputs():
    """Points on a line, some stacked, some pushed off it by 1e-12 to 1e-9 of
    the diameter, each with a similarity image, up to n=640."""
    rng = random.Random(11)
    out = []
    for n in (3, 4, 7, 12, 40, 160, 640):
        for jitter in (0.0, 1e-12, 1e-11, 1e-10, 1e-9) if n < 640 else (0.0, 1e-10):
            theta = rng.choice((0.0, math.pi / 2, rng.uniform(0, math.tau)))
            ox, oy = rng.uniform(-5, 5), rng.uniform(-5, 5)
            ts = [rng.choice((rng.uniform(0, 1), float(rng.randint(0, 4)) / 4)) for _ in range(n)]
            pts = []
            for t in ts:
                s = jitter * rng.uniform(-1, 1)
                pts.append(Point(ox + t * math.cos(theta) - s * math.sin(theta), oy + t * math.sin(theta) + s * math.cos(theta)))
            pts[rng.randrange(n)] = pts[0]
            out.append(pts)
            out.append(Similarity.random(rng).apply_config(Configuration(pts)).points)
    return out


def test_hull_filter_matches_pair_scan():
    # the straight pop leaves every farthest pair: the diameter, the robot
    # pair and the linear endpoints are the O(n^2) scans' doubles, bit for bit
    linear = 0
    for pts in _near_collinear_inputs() + _tied_diameters():
        config = Configuration(pts)
        assert config.diameter.hex() == diameter_reference(config).hex(), pts
        assert [bits(p) for p in config.farthest_pair] == [bits(p) for p in farthest_pair_reference(config)], pts
        if config.is_linear:
            linear += 1
            assert [bits(p) for p in config.linear_endpoints] == [bits(p) for p in linear_endpoints_reference(config)]
    assert linear >= 60


def test_straight_pop_keeps_knife_edge_ties():
    # (1 - 2^-53, 0) is inside (-2, 0)->(1, 0) by one ulp, yet rounds to the
    # same distance 3 from (-2, 0): it ends the first farthest robot pair
    edge = [Point(-2.0, 0.0), Point(1.0 - 2.0**-53, 0.0), Point(1.0, 0.0)]
    for pts in (edge, edge[::-1], [edge[0], edge[1], Point(0.5, 0.0), edge[2]]):
        config = Configuration(pts)
        assert config.farthest_pair == farthest_pair_reference(config)
    # two location pairs tie at the largest distance: the first in location
    # order gives the endpoints
    c, s = math.cos(0.05006), math.sin(0.05006)
    for q, a, b in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (2, 1, 0)):
        pts = [None] * 3
        pts[q], pts[a], pts[b] = Point(0.0, 0.0), Point(c, s), Point(c, -s)
        config = Configuration(pts, Tolerance(eps_len=0.1))
        assert classify(config).tag == TAG_L1W and len(config.locations) == 3
        assert config.linear_endpoints == linear_endpoints_reference(config)


def test_collinear_configuration_keeps_two_hull_candidates():
    rng = random.Random(5)
    for n in (160, 640):
        pts = [Point(0.5 + 3 * t, -1.0 + 4 * t) for t in (rng.random() for _ in range(n))]
        config = Configuration(pts)
        assert len(config._distinct[1]) == n
        assert len(_hull_candidates(config._distinct[1])) <= 4
        assert config.is_linear


_PYTHAGOREAN = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29), (12, 35, 37), (9, 40, 41), (11, 60, 61))


def _convex_inputs():
    """Point lists in or near convex position: regular 3..200-gons; a circle
    of rational points whose antipodal pairs tie exactly, alone, doubled and
    with copies jittered by 1e-12; squares whose sides are near-straight
    stretches; ellipses; and each family again far from the origin."""
    rng = random.Random(17)
    out = []
    for n in range(3, 201):
        c = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
        radius = rng.uniform(0.5, 2.0)
        phase = rng.uniform(0, TAU)
        out.append([on_ray(c, phase + k * TAU / n, radius) for k in range(n)])
    circle = [Point(1.0, 0.0), Point(-1.0, 0.0), Point(0.0, 1.0), Point(0.0, -1.0)]
    for a, b, c in _PYTHAGOREAN:
        x, y = a / c, b / c
        circle += [Point(sx * u, sy * v) for u, v in ((x, y), (y, x)) for sx in (1.0, -1.0) for sy in (1.0, -1.0)]
    out.append(circle)
    out.append(circle + circle[::3])
    out.append(circle + [Point(p.x + 1e-12 * rng.choice((-1, 1)), p.y) for p in circle[::2]])
    for per_side in (10, 40):
        for bump in (0.0, 1e-12, 1e-9, 1e-6):
            square = []
            for k in range(per_side):
                t = k / per_side
                for x, y in ((t, 0.0), (1.0, t), (1.0 - t, 1.0), (0.0, 1.0 - t)):
                    square.append(Point(x + bump * rng.uniform(-1, 1), y + bump * rng.uniform(-1, 1)))
            out.append(square)
    for _ in range(40):
        a, b = rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)
        out.append([Point(a * math.cos(t), b * math.sin(t)) for t in (rng.uniform(0, TAU) for _ in range(rng.randint(3, 120)))])
    out += [[Point(p.x + 1e6, p.y - 1e6) for p in pts] for pts in out[::5]]
    return out


def test_opposite_pairs_match_pair_loop(monkeypatch):
    # the diameter measured on near-opposite pairs is the loop's double,
    # with the loop's pairs in the loop's order, above and below the
    # crossover: every input takes the hull, and the windows are forced
    # below the crossover too
    crossover = configuration._OPPOSITE_FROM
    monkeypatch.setattr(configuration, "_ALL_PAIRS_UP_TO", 0)
    above = 0
    for pts in _convex_inputs():
        pts = sorted(set(pts))
        hull = _hull_candidates(pts)
        best, pairs = farthest_pairs_reference(hull)
        expected = (best.hex(), [(bits(p), bits(q)) for p, q in pairs])
        for opposite_from in (crossover, 0):
            monkeypatch.setattr(configuration, "_OPPOSITE_FROM", opposite_from)
            got = _farthest_pairs(pts)
            assert (got[0].hex(), [(bits(p), bits(q)) for p, q in got[1]]) == expected, pts
        above += len(hull) > crossover
    assert above >= 180


def test_regular_polygon_diameter_measures_linear_pairs(monkeypatch):
    # a regular 160-gon keeps all 160 points as candidates; the loop
    # measures 12,720 pairs, the window a few per candidate
    pts = sorted(on_ray(Point(0.3, -0.2), 0.1 + k * TAU / 160, 1.5) for k in range(160))
    hull = _hull_candidates(pts)
    assert len(hull) == 160
    expected = farthest_pairs_reference(hull)
    calls = []
    hypot = math.hypot
    monkeypatch.setattr(math, "hypot", lambda *args: calls.append(1) or hypot(*args))
    assert _farthest_pairs(pts)[:2] == expected
    assert len(calls) <= 3 * 160


def _mirror_symmetric(rng):
    """Mirror pairs across a random axis and no robot on it: mirror images have
    equal distance sums and, as views turn clockwise, different views."""
    pairs = [(rng.uniform(0.1, 1), rng.uniform(-1, 1)) for _ in range(rng.randint(2, 6))]
    pts = [Point(x, y) for x, y in pairs] + [Point(-x, y) for x, y in pairs]
    return Similarity.random(rng).apply_config(Configuration(pts))


def _unsafe_top_multiplicity(rng):
    """Two doubled locations at the ends of a line of single robots, each
    seeing the line and the other end on one half-line, so neither is safe
    and the election falls through to multiplicity one."""
    k = rng.randint(4, 6)
    pts = [Point(0, 0)] * 2 + [Point(j, 0) for j in range(1, k + 1)] + [Point(k + 1, 0)] * 2
    pts += [Point(rng.uniform(0, k + 1), rng.choice((-1, 1)) * rng.uniform(0.5, 3)) for _ in range(rng.randint(1, 3))]
    return Similarity.random(rng).apply_config(Configuration(pts))


def test_election_and_screen_match_reference():
    rng = random.Random(9)
    inputs = [mixed_configuration(rng, rng.randint(3, 12)) for _ in range(150)]
    mirrors = [_mirror_symmetric(rng) for _ in range(40)]
    unsafe = [_unsafe_top_multiplicity(rng) for _ in range(20)]
    symmetric = [symmetric_configuration(rng) for _ in range(40)]
    view_decided = fell_through = 0
    for config in inputs + mirrors + unsafe + symmetric:
        if config.is_linear:
            continue
        safe = safe_points_reference(config)
        assert [bits(p) for p in safe_points(config)] == [bits(p) for p in safe]
        elected = outcome(_elect_safe_point, config)
        assert elected == outcome(elect_reference, config), config
        if safe:
            top = max(l.multiplicity for l in config.locations)
            fell_through += all(config.multiplicity_at(p) < top for p in safe)
            nearest = min(safe, key=lambda p: (-config.multiplicity_at(p), sum(dist(p, q) for q in config.points)))
            view_decided += elected != bits(nearest)
    assert view_decided >= 30 and fell_through >= 18


def _collinear_tie(rng):
    """Mirror pairs across the y axis, then a pair P near the axis and a
    pair Q placed so that P, the centroid (0, g) and Q are collinear: seen
    from P, toward the centroid, Q lies on the reference ray, at an angle
    that rounds to either side of zero."""
    pairs = [(rng.uniform(0.1, 1), rng.uniform(-1, 1)) for _ in range(rng.randint(2, 5))]
    px, py = rng.uniform(0.02, 0.08), rng.uniform(-0.3, 0.3)
    t = rng.uniform(1.5, 3.0)
    # g once Q = P + t * ((0, g) - P) and every mirror image have joined
    g = (2 * sum(y for _, y in pairs) + 2 * py * (2 - t)) / (2 * len(pairs) + 4 - 2 * t)
    pairs += [(px, py), (px * (1 - t), py + t * (g - py))]
    pts = [Point(x, y) for x, y in pairs] + [Point(-x, y) for x, y in pairs]
    return Similarity.random(rng).apply_config(Configuration(pts))


def test_view_decided_elections_are_frame_free(monkeypatch):
    """An election that the view order decides elects the same point in
    every local frame: each elected point maps back within 1e-9 * D through
    every frame, on mirror-symmetric inputs, on mirror pairs with a location
    on the line through a tied candidate and the centroid, and on the six
    robots of ``mirror_tie.json``, whose tied pair is also the diametral
    pair (each one's partner lies on the line through it and the pair's
    midpoint)."""
    rng = random.Random(11)
    greatest = symmetry.greatest_view
    decided = []
    monkeypatch.setattr(symmetry, "greatest_view", lambda config, points: decided.append(1) or greatest(config, points))
    start = Configuration(json.loads((DATA / "mirror_tie.json").read_text())["points"])
    families = {
        "mirror": [(_mirror_symmetric(rng), 5) for _ in range(160)],
        "collinear": [(_collinear_tie(rng), 5) for _ in range(160)],
        "start": [(start, 40)],
    }
    view_decided = Counter()
    for family, inputs in families.items():
        for config, draws in inputs:
            decided.clear()
            elected = _elect_safe_point(config)
            if not decided:
                continue
            view_decided[family] += 1
            for _ in range(draws):
                frame = LocalFrame.random(rng, config.diameter)
                mapped = frame.invert_point(_elect_safe_point(frame.apply_config(config)))
                assert dist(mapped, elected) <= 1e-9 * config.diameter, (config, frame)
    assert view_decided["mirror"] >= 150 and view_decided["collinear"] >= 150 and view_decided["start"] == 1


def _two_crowded_rays(rng: random.Random, n: int, straddle: bool):
    """A robot c with two rays about 1e-9 apart holding ceil(n/2) robots
    between them, more than either ray holds, side by side or one on each
    side of direction 0; returns the points, c and the float gap between
    the rays as the safe-point chain measures it."""
    limit = (n + 1) // 2 - 1
    c = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
    g = 1e-9 * rng.uniform(0.5, 2.0)
    base = -g / 2 if straddle else rng.uniform(0.5, TAU - 0.5)
    radii = iter(rng.sample([0.3 + 0.05 * j for j in range(15)], n))
    ray_a = [on_ray(c, base, next(radii)) for _ in range(limit - 1)]
    ray_b = [on_ray(c, base + g, next(radii)) for _ in range(2)]
    rest = n - 1 - len(ray_a) - len(ray_b)
    spread = [on_ray(c, base + 0.7 + j * (TAU - 1.4) / rest, next(radii)) for j in range(rest)]
    a = [ccw_angle_of(p, c) % TAU for p in ray_a]
    b = [ccw_angle_of(p, c) % TAU for p in ray_b]
    gap = min(b) + TAU - max(a) if straddle else min(b) - max(a)
    return [c] + ray_a + ray_b + spread, c, gap


def test_safe_points_at_ray_gap_knife_edges():
    """Safe points match the sorting reference when two rays are eps_angle
    +-3 ulps apart, also across direction 0, and a location is safe exactly
    when its two crowded rays stay apart."""
    rng = random.Random(61)
    flips = 0
    for n in (9, 11, 13):
        for straddle in (False, True):
            for _ in range(3):
                pts, c, gap = _two_crowded_rays(rng, n, straddle)
                assert 0.4e-9 < gap < 2.1e-9
                below = above = gap
                epsilons = [gap]
                for _ in range(3):
                    below = math.nextafter(below, 0.0)
                    above = math.nextafter(above, 1.0)
                    epsilons += [below, above]
                for eps in epsilons:
                    config = Configuration(pts, Tolerance(eps_len=1e-9, eps_angle=eps))
                    safe = safe_points(config)
                    assert [bits(p) for p in safe] == [bits(p) for p in safe_points_reference(config)], (pts, eps)
                    assert (c in safe) == (eps < gap), (pts, eps)
                    flips += eps < gap
    assert flips == 18 * 3


@st.composite
def _fans(draw):
    """A stack of 1-3 robots at the origin, a fan of robots whose
    directions from it chain in gaps of up to 1e-9 (0.0 gives one ray),
    around direction 0 or another base, and robots spread around the rest
    of the turn, some of them stacked; then ``eps_angle`` is one of the
    gaps between the sorted directions, the one across direction 0
    included, exactly or one ulp either side."""
    base = draw(st.sampled_from([0.0, -1e-9, 1.0, math.pi]))
    gaps = draw(st.lists(st.sampled_from([0.0, 3e-10, 7e-10, 1e-9]), min_size=0, max_size=7))
    spread = draw(st.integers(0, 7))
    radii = st.floats(0.3, 2.0)
    directions = [base]
    for gap in gaps:
        directions.append(directions[-1] + gap)
    directions += [base + 0.5 + j * (TAU - 1.0) / max(spread, 1) for j in range(spread)]
    pts = [Point(0.0, 0.0)] * draw(st.integers(1, 3))
    for theta in directions:
        p = on_ray(Point(0.0, 0.0), theta, draw(radii))
        pts += [p] * draw(st.integers(1, 2))
    dirs = sorted(a for a in symmetry.Rays.of(Configuration(pts), Point(0.0, 0.0)).angles if a is not None)
    gaps = [b - a for a, b in zip(dirs, dirs[1:])] + [dirs[0] + TAU - dirs[-1]]
    eps = draw(st.sampled_from(gaps))
    eps = draw(st.sampled_from([eps, math.nextafter(eps, 0.0), math.nextafter(eps, 1.0)]))
    return Configuration(pts, Tolerance(eps_len=1e-9, eps_angle=eps))


@given(config=_fans())
@settings(max_examples=300, deadline=None)
def test_safety_from_the_longest_chain_matches_every_cluster(config):
    # the longest chain's count, from the sorted directions alone, gives
    # the verdict of the ray clusters at every location, at gaps of exactly
    # eps_angle and one ulp either side, across direction 0, on stacks and
    # on one-ray sets
    for k in range(len(config.locations)):
        assert configuration._is_safe(config, k) == is_safe_unpruned(config, k), (config, k)


# --- frame images take their structure from the base ---------------------------------
#
# Where a base measured every pair of its distinct points, its frame images
# take their stacks, farthest pair and locations from it
# (``configuration._seed_image``).  Each must be what the image would
# compute itself, bit for bit.


def _structure(config):
    """The stacks, the farthest pair and the locations, floats as bits."""
    stacks, pts = config._distinct
    diameter, i, j = config._farthest
    return (
        [(bits(p), idx) for p, idx in stacks.items()],
        [bits(p) for p in pts],
        (diameter.hex(), i, j),
        config.diameter.hex(),
        [bits(p) for p in config.farthest_pair],
        [(bits(loc.location), loc.multiplicity, loc.indices) for loc in config.locations],
    )


@st.composite
def _structure_cases(draw):
    """A base of 3 to 28 robots, uniform, a regular polygon (whose diameters
    nearly tie) or a rectangle's corners and inner points (whose diagonals
    tie exactly); with stacks, +-0.0 coordinates, a pair a few ulps from
    the farthest distance and one a few ulps either side of the merge
    slack; scaled by 1e-80 to 1e85 and perhaps offset by up to 1e6
    times its diameter D.  The frame is ``LocalFrame.random``, or of scale
    0.5 or 2 translated by +-2D, or one that keeps the sign of every zero.
    Also whether the base was offset."""
    shape = draw(st.sampled_from(("uniform", "polygon", "rectangle")))
    n = draw(st.integers(4 if shape == "rectangle" else 3, 28))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if shape == "uniform":
        pts = [Point(rng.random(), rng.random()) for _ in range(n)]
    elif shape == "polygon":
        phase = rng.uniform(0, TAU)
        pts = [on_ray(Point(0.2, -0.1), phase + j * TAU / n, 1.0) for j in range(n)]
    else:
        w, h = rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)
        pts = [Point(0.0, 0.0), Point(w, 0.0), Point(0.0, h), Point(w, h)]
        pts += [Point(rng.uniform(0, w), rng.uniform(0, h)) for _ in range(n - 4)]
    for _ in range(draw(st.integers(0, n // 3))):
        pts[rng.randrange(n)] = pts[rng.randrange(n)]
    if draw(st.booleans()):
        # one stack of 0.0 and -0.0 coordinates
        y = pts[0].y
        pts[0], pts[rng.randrange(1, n)] = Point(0.0, y), Point(-0.0, y)
    scale = 10.0 ** draw(st.floats(-80, 85))
    pts = [Point(x * scale, y * scale) for x, y in pts]
    shifted = draw(st.booleans())
    if shifted:
        shift = draw(st.floats(1.0, 1e6)) * Configuration(pts).diameter
        pts = [Point(x + shift, y - 0.5 * shift) for x, y in pts]
    if draw(st.booleans()):
        # one end of the farthest pair turned about the other: a second pair
        # at that distance, up to a few ulps of rounding either way
        _, i, j = Configuration(pts)._farthest
        (ax, ay), (bx, by) = pts[i], pts[j]
        turned = math.atan2(by - ay, bx - ax) + draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.05, 0.5))
        others = [k for k in range(n) if pts[k] != pts[i] and pts[k] != pts[j]]
        if others:
            pts[rng.choice(others)] = on_ray(pts[i], turned, math.hypot(bx - ax, by - ay))
    if draw(st.booleans()):
        # a robot a few ulps either side of the merge slack from another
        x, y = pts[rng.randrange(n)]
        x = x + Configuration(pts).merge_slack
        for _ in range(abs(steps := draw(st.integers(-3, 3)))):
            x = math.nextafter(x, math.inf if steps > 0 else -math.inf)
        pts[rng.randrange(n)] = Point(x, y)
    base = Configuration(pts)
    span = 2.0 * base.diameter
    kind = draw(st.sampled_from(("random", "signed", 0.5, 2.0)))
    if kind == "random":
        frame = LocalFrame.random(rng, base.diameter)
    elif kind == "signed":
        # no turn and a translation of -0.0 keep every zero's sign
        frame = LocalFrame(0.0, 2.0, Point(-0.0, -0.0))
    else:
        signs = draw(st.tuples(st.sampled_from((-1.0, 1.0)), st.sampled_from((-1.0, 1.0))))
        frame = LocalFrame(rng.uniform(0, TAU), kind, Point(signs[0] * span, signs[1] * span))
    return base, frame, shifted


@given(_structure_cases())
@settings(max_examples=400, deadline=None)
def test_seeded_image_structure_is_its_own(case):
    base, frame, shifted = case
    image = frame.apply_config(base)
    seeded = set(vars(image))
    assert _structure(image) == _structure(Configuration(image.points, image.tol)), (base, frame)
    if not shifted:
        # the frame's error is then far below the seed's floor and every
        # gap between two of the base's distinct points
        assert {"_distinct", "_farthest"} <= seeded, (base, frame)


def test_images_compute_their_own_structure_outside_the_guards(monkeypatch):
    # the image runs its own scan where its base measured only the hull's
    # pairs (29 distinct points) or where the frame's error passes the
    # seed's floor (a translation of 1e6 D); and its own location sweep
    # where two of its stacks may come within its merge slack
    scans = []
    farthest_pairs = configuration._farthest_pairs
    monkeypatch.setattr(configuration, "_farthest_pairs", lambda pts: scans.append(pts) or farthest_pairs(pts))
    rng = random.Random(37)
    wide = uniform_configuration(rng, 29)
    plain = uniform_configuration(rng, 12)
    d = plain.diameter
    nudged = list(plain.points)
    nudged[5] = Point(nudged[4].x + 0.5 * plain.merge_slack, nudged[4].y)
    close = Configuration(nudged)
    turn = rng.uniform(0, TAU)
    for base, frame, own_scan, own_sweep in (
        (wide, LocalFrame(turn, 0.5, Point(d, -d)), True, True),
        (plain, LocalFrame(turn, 2.0, Point(1e6 * d, -1e6 * d)), True, False),
        (plain, LocalFrame(turn, 2.0, Point(2 * d, -2 * d)), False, False),
        (close, LocalFrame(turn, 0.5, Point(-2 * d, d)), False, True),
    ):
        scans.clear()
        image = frame.apply_config(base)
        assert ("locations" not in vars(image)) is own_sweep, base
        assert _structure(image) == _structure(Configuration(image.points, image.tol)), base
        assert any(pts is image._distinct[1] for pts in scans) is own_scan, base
    assert len(close.locations) == len(close._distinct[1]) - 1 == 11


# --- frame images take their class-A election from the base ---------------------------
#
# Where a class-A base's margins clear a frame image's bounds, the image
# takes the base's elected location and asymmetry verdict
# (``configuration._seed_image``).  Its class must be what a fresh
# configuration of its points gives, bit for bit, seeded or not.


def _class_or_error(config):
    """The class as bits (``_class_bits``), or the error raised."""
    try:
        return _class_bits(config.cls)
    except GatherError as exc:
        return type(exc).__name__


def _image_of(base, frame):
    """The frame image of the classified base, and whether it took the
    base's election."""
    base.cls
    image = frame.apply_config(base)
    return image, "_elected_at" in vars(image)


def _assert_own_election(image):
    fresh = Configuration(image.points, image.tol)
    assert _class_or_error(image) == _class_or_error(fresh), image
    if "_elected_at" in vars(image):
        assert symmetry.symmetricity(fresh) == 1, image


@st.composite
def _election_cases(draw):
    """A base of 3 to 20 robots: uniform; uniform with two stacks of two, so
    that no multiplicity is the only greatest; mirror pairs across an axis,
    whose sums tie; or uniform plus a robot whose direction from the
    elected point lies eps_angle, perhaps up to 1e-10 either way, from
    another robot's.  Scaled by 1e-80 to 1e85 and perhaps offset by up to
    1e6 times its diameter D; the frame is ``LocalFrame.random``, or of
    scale 0.5 or 2 translated by +-2D.  Also the shape and whether the base
    was offset."""
    shape = draw(st.sampled_from(("uniform", "stacked", "mirror", "near gap")))
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers({"uniform": 3, "stacked": 5}.get(shape, 4), 20))
    pts = [Point(rng.random(), rng.random()) for _ in range(n)]
    if shape == "stacked":
        pts[1], pts[3] = pts[0], pts[2]
    elif shape == "mirror":
        pts = pts[: n // 2] + [Point(1.0 - x, y) for x, y in pts[: n // 2]]
    elif shape == "near gap":
        w = Configuration(pts).cls.elected
        b = pts[rng.randrange(n)]
        if w is not None and b != w:
            off = draw(st.sampled_from((0.0, 1e-13, 1e-12, 1e-11, 1e-10))) * draw(st.sampled_from((-1.0, 1.0)))
            turn = math.atan2(b.y - w.y, b.x - w.x) + Tolerance().eps_angle + off
            pts.append(on_ray(w, turn, rng.uniform(0.2, 0.9) * dist(w, b)))
    scale = 10.0 ** draw(st.floats(-80, 85))
    pts = [Point(x * scale, y * scale) for x, y in pts]
    shifted = draw(st.booleans())
    if shifted:
        shift = draw(st.floats(1.0, 1e6)) * Configuration(pts).diameter
        pts = [Point(x + shift, y - 0.5 * shift) for x, y in pts]
    base = Configuration(pts)
    span = 2.0 * base.diameter
    kind = draw(st.sampled_from(("random", 0.5, 2.0)))
    if kind == "random":
        frame = LocalFrame.random(rng, base.diameter)
    else:
        signs = draw(st.tuples(st.sampled_from((-1.0, 1.0)), st.sampled_from((-1.0, 1.0))))
        frame = LocalFrame(rng.uniform(0, TAU), kind, Point(signs[0] * span, signs[1] * span))
    return base, frame, shape, shifted


@given(_election_cases())
@settings(max_examples=400, deadline=None)
def test_seeded_image_election_is_its_own(case):
    base, frame, shape, shifted = case
    try:
        base.cls
    except GatherError:
        return
    image, seeded = _image_of(base, frame)
    _assert_own_election(image)
    if shape == "uniform" and not shifted and base.cls.tag == TAG_ASYMMETRIC:
        # generic margins are far above the frame's error
        assert seeded, (base, frame)


def _counting(monkeypatch):
    """Count the calls of the class-A election and of the asymmetry test."""
    calls = Counter()
    elect, sym = configuration._elect_safe_point, symmetry.symmetricity
    monkeypatch.setattr(configuration, "_elect_safe_point", lambda c: calls.update(["elect"]) or elect(c))
    monkeypatch.setattr(symmetry, "symmetricity", lambda c: calls.update(["sym"]) or sym(c))
    return calls


def _falls_back(monkeypatch, base, frame, classified=True):
    """The image of the class-A base runs its own election and asymmetry
    test, and gets a fresh configuration's class."""
    if classified:
        assert base.cls.tag == TAG_ASYMMETRIC, base
    image = frame.apply_config(base)
    assert "_elected_at" not in vars(image), base
    calls = _counting(monkeypatch)
    _assert_own_election(image)
    assert image.cls.tag == TAG_ASYMMETRIC and calls == {"elect": 2, "sym": 2}, (base, calls)
    monkeypatch.undo()


def test_images_run_their_own_election_outside_the_guards(monkeypatch):
    rng = random.Random(43)
    frame = LocalFrame(rng.uniform(0, TAU), 1.3, Point(0.4, -0.2))
    # the tied sums of the mirror tie, sent to the view order
    _falls_back(monkeypatch, Configuration(json.loads((DATA / "mirror_tie.json").read_text())["points"]), frame)
    # two robots on one ray from the winner: seeded at the default slack,
    # but at eps_angle = 0 the gap of 0.0 between them is the slack itself
    ray = [Point(0, 0), Point(1, 0), Point(2, 0), Point(-0.3, 1.1), Point(-0.5, -0.9), Point(0.2, -1.3)]
    assert _image_of(Configuration(ray), frame)[1]
    _falls_back(monkeypatch, Configuration(ray, Tolerance(eps_angle=0.0)), frame)
    # 65 robots: no exact pair sums, so no seeded sums either
    _falls_back(monkeypatch, uniform_configuration(rng, 65), frame)
    # a base never classified, though its exact pair sums are computed
    base = uniform_configuration(rng, 12)
    unclassified = Configuration(base.points)
    unclassified._pair_sums
    _falls_back(monkeypatch, unclassified, frame, classified=False)
    assert "cls" not in vars(unclassified) and _image_of(base, frame)[1]


def test_tied_sums_make_the_image_run_its_own_election(monkeypatch):
    # one robot slid until the two least exact sums tie to the last bits,
    # with no symmetry: the view order decides, in the base and the image
    rng = random.Random(7)
    pts = [Point(rng.random(), rng.random()) for _ in range(7)]
    sums = [total for _, _, total in Configuration(pts)._pair_sums]
    w, k = sorted(range(7), key=sums.__getitem__)[:2]
    j = next(i for i in range(7) if i not in (w, k))

    def slid(x):
        return Configuration(pts[:j] + [Point(x, pts[j].y)] + pts[j + 1:])

    def gap(x):
        sums = slid(x)._pair_sums
        return sums[k][2] - sums[w][2]

    lo, hi = pts[j].x, pts[j].x - 1.0
    assert gap(lo) > 0.0 > gap(hi)
    while (mid := lo + (hi - lo) / 2) not in (lo, hi):
        lo, hi = (mid, hi) if gap(mid) > 0.0 else (lo, mid)
    base = slid(lo)
    assert abs(gap(lo)) < 1e-15
    _falls_back(monkeypatch, base, LocalFrame(0.7, 1.3, Point(0.4, -0.2)))


def test_a_centroid_near_a_location_makes_the_image_test_its_own_asymmetry(monkeypatch):
    # a robot on the centroid of five others, then one whose distance from
    # the centroid is just beyond the merge slack, by less than the frame's
    # error: either way the image's centre may be the robot's location
    rng = random.Random(3)
    five = [Point(rng.random(), rng.random()) for _ in range(5)]
    c5 = Point(math.fsum(x for x, _ in five) / 5, math.fsum(y for _, y in five) / 5)
    frame = LocalFrame(0.7, 1.3, Point(0.4, -0.2))
    on = Configuration(five + [c5])
    assert symmetry._center(on) == c5
    _falls_back(monkeypatch, on, frame)
    # g - p = 5/6 (c5 - p) for the sixth robot p
    slack = on.merge_slack
    beyond = Configuration(five + [Point(c5.x - 1.2 * slack * (1.0 + 5e-6), c5.y)])
    g = symmetry._center(beyond)
    assert slack < dist(g, beyond.points[5]) < slack * (1.0 + 1e-5) and beyond.merge_slack == slack
    _falls_back(monkeypatch, beyond, frame)
    assert _image_of(Configuration(five + [Point(c5.x - 0.1, c5.y)]), frame)[1]


def test_a_near_turn_of_the_innermost_point_makes_the_image_test_its_own_asymmetry(monkeypatch):
    # two points at one distance from the centroid, 1 rad apart: either may
    # be the image's innermost.  Then a point 2e-6 r0 beyond the half turn of
    # the innermost, inside the order-2 window at eps_angle = 1e-4 but far
    # outside it at the default slack
    rng = random.Random(5)
    four = [Point(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)]
    gx, gy = math.fsum(x for x, _ in four) / 4, math.fsum(y for _, y in four) / 4
    vx, vy = 0.031, 0.017
    tx, ty = math.cos(1.0) * vx - math.sin(1.0) * vy, math.sin(1.0) * vx + math.cos(1.0) * vy
    frame = LocalFrame(0.7, 1.3, Point(0.4, -0.2))
    tied = four + [Point(gx + vx, gy + vy), Point(gx + tx, gy + ty), Point(gx - vx - tx, gy - vy - ty)]
    _falls_back(monkeypatch, Configuration(tied), frame)
    opposite = four + [Point(gx + vx, gy + vy), Point(gx - vx * (1 + 2e-6), gy - vy * (1 + 2e-6))]
    _falls_back(monkeypatch, Configuration(opposite, Tolerance(eps_angle=1e-4)), frame)
    assert _image_of(Configuration(opposite), frame)[1]


def test_an_image_of_another_tolerance_runs_its_own_election(monkeypatch):
    base = uniform_configuration(random.Random(12), 12)
    frame = LocalFrame(0.7, 1.3, Point(0.4, -0.2))
    assert _image_of(base, frame)[1]
    # ``apply_config``'s points under a slack of 2e-9
    points = frame.apply_config(base).points
    image = Configuration(points, Tolerance(eps_angle=2e-9))
    configuration._seed_image(image, base, frame.scale, frame.translation)
    assert "_lower_sums" in vars(image) and "_elected_at" not in vars(image)
    _assert_own_election(image)


def test_a_safety_gap_at_the_margin_decides_the_seed():
    # a robot whose direction from the elected point is about 2e-9 from
    # another's, under slacks eps_angle around the one at which that gap
    # less eps_angle is the frame's margin: seeded up to it, not beyond,
    # and every image's class is its own
    rng = random.Random(44)
    pts = [Point(rng.random(), rng.random()) for _ in range(7)]
    w = Configuration(pts).cls.elected
    b = pts[0]
    pts.append(on_ray(w, math.atan2(b.y - w.y, b.x - w.x) + 2e-9, 0.6 * dist(w, b)))
    frame = LocalFrame(rng.uniform(0, TAU), 1.7, Point(0.3, -0.8))

    def image_at(eps):
        base = Configuration(pts, Tolerance(eps_angle=eps))
        assert base.cls.tag == TAG_ASYMMETRIC and base.cls.elected == w
        return _image_of(base, frame)

    lo, hi = 1e-9, 2e-9
    assert image_at(lo)[1] and not image_at(hi)[1]
    while (mid := lo + (hi - lo) / 2) not in (lo, hi):
        lo, hi = (mid, hi) if image_at(mid)[1] else (lo, mid)
    edge = [lo]
    for _ in range(3):
        edge = [math.nextafter(edge[0], 0.0), *edge, math.nextafter(edge[-1], 1.0)]
    assert edge[4] == hi and 1.9e-9 < lo < 2e-9
    for eps in edge:
        image, seeded = image_at(eps)
        assert seeded == (eps <= lo), eps
        _assert_own_election(image)
