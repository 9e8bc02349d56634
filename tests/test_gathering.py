import itertools
import math
import random
from collections import Counter

import pytest

from gathersim import (
    Configuration,
    Point,
    classify,
    compute,
    moving_set,
    potential,
)
from gathersim import gathering, symmetry
from gathersim.configuration import TAG_ASYMMETRIC, TAG_BIVALENT, TAG_MULTIPLE
from gathersim.cli import main
from gathersim.errors import BivalentInput, DegenerateAngle, GatherError, SweepMissed, WrongClass
from gathersim.gathering import (
    RULE_A_ELECT,
    RULE_L2W_CENTER,
    RULE_L2W_ROTATE,
    RULE_M_DIRECT,
    RULE_M_SIDESTEP,
    RULE_STAY,
    RULE_WEBER,
    _blocked,
    _sidestep_angle,
)
from gathersim.geometry import TAU, Tolerance, angle_cw, dist, on_open_segment, rotate_cw
from helpers import Similarity, mixed_configuration, on_half_line, on_ray, save_configuration, segments_intersect
from references import blocked_reference, sidestep_angle_reference

SQUARE = Configuration([(1, 1), (-1, 1), (-1, -1), (1, -1)])
ASYM4 = Configuration([(0, 0), (3, 0), (0, 4), (1, 1)])
L2W_LINE = Configuration([(0, 0), (1, 0), (3, 0), (4, 0)])


def test_compute_m_direct():
    config = Configuration([(0, 0), (0, 0), (4, 0), (8, 0)])
    decision = compute(config, 2)
    assert decision.rule == RULE_M_DIRECT
    assert decision.destination == Point(0, 0)
    assert decision.elected == Point(0, 0)


def test_compute_m_stay_at_elected():
    config = Configuration([(0, 0), (0, 0), (4, 0), (8, 0)])
    decision = compute(config, 0)
    assert decision.rule == RULE_STAY
    assert decision.destination == Point(0, 0)


def test_compute_m_sidestep():
    config = Configuration([(-1, 0), (0, 0), (0, 0), (4, 0), (8, 0)])
    decision = compute(config, 4)
    assert decision.rule == RULE_M_SIDESTEP
    # nearest clockwise off-ray robot is (-1, 0) at angle pi; step is pi/3
    assert decision.destination == pytest.approx((4.0, -4.0 * math.sqrt(3)))


def test_compute_m_sidestep_all_on_ray():
    # no off-ray robot at all: fall back to one third of a full turn
    config = Configuration([(0, 0), (0, 0), (4, 0), (8, 0)])
    decision = compute(config, 3)
    assert decision.rule == RULE_M_SIDESTEP
    assert decision.destination == pytest.approx(rotate_cw(Point(8, 0), Point(0, 0), TAU / 3))


def test_sidestep_sweep_that_misses_raises_a_typed_error(monkeypatch, tmp_path, capsys):
    # a successor sweep that never leaves the robot's ray, though (-1, 0)
    # lies off it, is a program fault: a typed error, still a RuntimeError,
    # which the CLI reports as an error with exit 1
    config = Configuration([(-1, 0), (0, 0), (0, 0), (4, 0), (8, 0)])
    path = tmp_path / "blocked.json"
    save_configuration(config, str(path))
    monkeypatch.setattr(symmetry, "successor", lambda config, i, c: i)
    with pytest.raises(SweepMissed, match="successor sweep missed every off-ray robot") as raised:
        compute(config, 4)
    assert isinstance(raised.value, RuntimeError) and isinstance(raised.value, GatherError)
    assert main(["classify", str(path), "--decide"]) == 1
    assert capsys.readouterr().err == "error: successor sweep missed every off-ray robot\n"


def test_compute_m_sidestep_at_tiny_eps_len():
    # at eps_len 1e-14 the robot 1e-10 from the stack is off it and blocks
    # (7, 0); the side step still measures its ray, at the configuration's
    # tolerance, and turns to the nearest clockwise ray, through (2, -9)
    config = Configuration(
        [(0, 0), (0, 0), (0, 0), (1e-10, 0), (7, 0), (0, 8), (-6, 1), (2, -9), (5, 5)],
        Tolerance(eps_len=1e-14),
    )
    assert classify(config).tag == TAG_MULTIPLE
    decision = compute(config, 4)
    assert decision.rule == RULE_M_SIDESTEP
    theta = angle_cw(Point(7, 0), Point(0, 0), Point(2, -9), config.tol)
    assert decision.destination == rotate_cw(Point(7, 0), Point(0, 0), theta / 3.0)


def test_compute_weber_classes():
    for i in range(4):
        decision = compute(SQUARE, i)
        assert decision.rule == RULE_WEBER
        assert decision.destination == pytest.approx((0, 0), abs=1e-9)
    line = Configuration([(0, 0), (1, 0), (2, 0)])
    assert compute(line, 0).destination == Point(1, 0)
    assert compute(line, 1).rule == RULE_STAY


def test_compute_asymmetric_election():
    sums = {
        p: sum(dist(p, q) for q in ASYM4.points) for p in ASYM4.points
    }
    assert min(sums, key=sums.get) == Point(1, 1)
    for i in range(4):
        decision = compute(ASYM4, i)
        if ASYM4.points[i] == Point(1, 1):
            assert decision.rule == RULE_STAY
        else:
            assert decision.rule == RULE_A_ELECT
            assert decision.destination == Point(1, 1)


def test_compute_l2w():
    decision = compute(L2W_LINE, 1)
    assert decision.rule == RULE_L2W_CENTER
    assert decision.destination == Point(2, 0)
    decision = compute(L2W_LINE, 0)
    assert decision.rule == RULE_L2W_ROTATE
    assert decision.destination == pytest.approx((2 - math.sqrt(2), math.sqrt(2)))
    decision = compute(L2W_LINE, 3)
    assert decision.rule == RULE_L2W_ROTATE
    assert decision.destination == pytest.approx((2 + math.sqrt(2), -math.sqrt(2)))


def test_compute_bivalent_rejected():
    config = Configuration([(0, 0), (0, 0), (1, 0), (1, 0)])
    with pytest.raises(BivalentInput):
        compute(config, 0)
    # every call raises: no partial decision list is kept
    for _ in range(3):
        with pytest.raises(BivalentInput):
            moving_set(config)


def test_stay_iff_destination_is_own_position():
    rng = random.Random(31)
    for _ in range(80):
        config = mixed_configuration(rng, rng.randint(1, 10))
        cls = classify(config)
        if cls.tag == TAG_BIVALENT:
            continue
        for i in range(config.n):
            decision = compute(config, i, cls)
            stays = dist(decision.destination, config.points[i]) <= config.merge_slack
            assert (decision.rule == RULE_STAY) == stays


def test_moving_set_examples():
    config = Configuration([(0, 0), (0, 0), (4, 0), (8, 0)])
    assert set(moving_set(config)) == {Point(4, 0), Point(8, 0)}
    assert set(moving_set(SQUARE)) == set(SQUARE.points)
    gathered = Configuration([(3, 3)] * 5)
    assert moving_set(gathered) == []


def test_decide_computes_once_per_location(monkeypatch):
    calls = []
    inner = gathering.compute
    monkeypatch.setattr(gathering, "compute", lambda config, i, *args: calls.append(i) or inner(config, i, *args))
    config = Configuration([(0, 0), (4, 0), (0, 0), (8, 0), (0, 0), (4, 0)])
    decisions = gathering.decide(config)
    assert calls == [loc.indices[0] for loc in config.locations] == [0, 1, 3]
    assert [d.rule for d in decisions] == [RULE_STAY, RULE_M_DIRECT, RULE_STAY, RULE_M_SIDESTEP, RULE_STAY, RULE_M_DIRECT]
    assert decisions[1] is decisions[5] and decisions[0] is decisions[2] is decisions[4]
    # every later reader, moving_set included, gets the same list
    assert gathering.decide(config) is decisions
    assert set(moving_set(config)) == {Point(4, 0), Point(8, 0)}
    assert moving_set(config) == moving_set(config)
    assert len(calls) == 3


def test_potential_examples():
    value = potential(ASYM4)
    expected_sum = math.sqrt(2) + math.sqrt(5) + math.sqrt(10)
    assert value.mult == 1
    assert value.inv_sum == pytest.approx(1 / expected_sum)

    with pytest.raises(WrongClass):
        potential(SQUARE)

    # two multiplicity-3 clusters tie, so the heaviest safe point is elected
    heavy = Configuration([(0, 0), (0, 0), (0, 0), (10, 0), (10, 0), (10, 0), (2, 5), (7, 3)])
    cls = classify(heavy)
    assert cls.tag == TAG_ASYMMETRIC
    assert potential(heavy).mult == 3


def test_potential_progress_after_synchronous_step():
    cls = classify(ASYM4)
    before = potential(ASYM4)
    target = cls.elected
    moved = []
    for p in ASYM4.points:
        if p == target:
            moved.append(p)
        else:
            moved.append(Point(p.x + 0.4 * (target.x - p.x), p.y + 0.4 * (target.y - p.y)))
    after_config = Configuration(moved)
    after_cls = classify(after_config)
    assert after_cls.tag == TAG_ASYMMETRIC
    after = potential(after_config)
    assert after.mult > before.mult or (
        after.mult == before.mult and after.inv_sum > before.inv_sum
    )


def test_anonymity_colocated_identical():
    rng = random.Random(32)
    for _ in range(40):
        config = mixed_configuration(rng, rng.randint(2, 10))
        cls = classify(config)
        if cls.tag == TAG_BIVALENT:
            continue
        for loc in config.locations:
            decisions = [compute(config, i, cls) for i in loc.indices]
            assert all(d.destination == decisions[0].destination for d in decisions)
            assert all(d.rule == decisions[0].rule for d in decisions)


def test_oblivious_repeatability():
    for i in range(4):
        a = compute(ASYM4, i)
        b = compute(ASYM4, i)
        assert a == b


def test_frame_invariance():
    rng = random.Random(33)
    checked = 0
    while checked < 120:
        config = mixed_configuration(rng, rng.randint(2, 9))
        cls = classify(config)
        if cls.tag == TAG_BIVALENT:
            continue
        i = rng.randrange(config.n)
        sim = Similarity.random(rng)
        image = sim.apply_config(config)
        got = compute(image, i).destination
        want = sim(compute(config, i, cls).destination)
        assert dist(got, want) <= 1e-9 * max(image.diameter, 1.0), (config, sim.theta)
        checked += 1


def test_wait_free_necessity():
    rng = random.Random(34)
    for _ in range(120):
        config = mixed_configuration(rng, rng.randint(3, 10))
        if config.cls.tag == TAG_BIVALENT:
            continue
        moving = moving_set(config)
        stationary = [
            loc.location
            for loc in config.locations
            if all(dist(loc.location, m) > config.merge_slack for m in moving)
        ]
        assert len(stationary) <= 1


def test_m_class_collision_freedom():
    rng = random.Random(35)
    for _ in range(60):
        config = mixed_configuration(rng, rng.randint(4, 10))
        cls = classify(config)
        if cls.tag != TAG_MULTIPLE:
            continue
        elected = cls.elected
        segments = {}
        for loc in config.locations:
            if dist(loc.location, elected) <= config.merge_slack:
                continue
            decision = compute(config, loc.indices[0], cls)
            segments[loc.location] = (loc.location, decision.destination)
        for (a1, a2), (b1, b2) in itertools.combinations(segments.values(), 2):
            if segments_intersect(a1, a2, b1, b2):
                # the only admissible shared point is the elected location
                shared_at_elected = (
                    dist(a2, elected) <= config.merge_slack
                    and dist(b2, elected) <= config.merge_slack
                )
                assert shared_at_elected, (config, a1, b1)


def test_sidestep_angle_bound():
    rng = random.Random(36)
    checked = 0
    for _ in range(300):
        config = mixed_configuration(rng, rng.randint(4, 10))
        cls = classify(config)
        if cls.tag != TAG_MULTIPLE:
            continue
        elected = cls.elected
        for i in range(config.n):
            decision = compute(config, i, cls)
            if decision.rule != RULE_M_SIDESTEP:
                continue
            r = config.points[i]
            step_angle = angle_cw(r, elected, decision.destination)
            off_ray = [
                q
                for q in config.points
                if dist(q, elected) > config.merge_slack
                and not on_half_line(q, elected, r, config.tol)
                and dist(q, r) > config.merge_slack
            ]
            for q in off_ray:
                assert step_angle <= angle_cw(r, elected, q) / 3 + 1e-9
            checked += 1
    assert checked > 10


def _knife_edge_blocker(rng):
    """Robots e, e, r and q where e and r span the diameter and q sits at the
    largest offset from segment r-e that ``on_open_segment`` still accepts,
    found by bisection over the float offsets."""
    e = Point(rng.uniform(-1, 1), rng.uniform(-1, 1)) if rng.random() < 0.5 else Point(rng.uniform(-1e6, 1e6), 0.0)
    theta = rng.uniform(0, TAU)
    length = rng.choice((1.0, rng.uniform(1e-3, 1e3)))
    r = Point(e.x + length * math.cos(theta), e.y + length * math.sin(theta))
    s = rng.uniform(0.05, 0.95)
    side = rng.choice((-1.0, 1.0))
    base = Point(e.x + s * (r.x - e.x), e.y + s * (r.y - e.y))
    nx, ny = -side * math.sin(theta), side * math.cos(theta)

    def at(h):
        return Point(base.x + h * nx, base.y + h * ny)

    lo, hi = 0.0, 4e-9 * length
    if not on_open_segment(at(lo), r, e) or on_open_segment(at(hi), r, e):
        return None
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if mid in (lo, hi):
            break
        if on_open_segment(at(mid), r, e):
            lo = mid
        else:
            hi = mid
    return Configuration([e, e, r, at(lo)])


def test_blocked_filter_keeps_every_blocker():
    # the cheap cross/dot filter may only skip robots that on_open_segment
    # rejects; knife-edge blockers sit within rounding of its offset bound
    rng = random.Random(40)
    cases = [c for c in (_knife_edge_blocker(rng) for _ in range(300)) if c is not None]
    knife_edges = len(cases)
    for _ in range(300):
        config = mixed_configuration(rng, rng.randint(3, 12))
        cases.append(config)
        cases.append(Similarity.random(rng).apply_config(config))
    checked = blocked = 0
    for config in cases:
        for loc in config.locations:
            e = loc.location
            for r in config.points:
                if dist(r, e) <= config.merge_slack:
                    continue
                full = any(on_open_segment(q, r, e, config.tol) for q in config.points)
                assert _blocked(config, r, e) == full, (config, r, e)
                checked += 1
                blocked += full
    assert knife_edges >= 250 and checked > 3000 and blocked >= knife_edges


def _blocked_inputs():
    """(configuration, center) pairs: knife-edge blockers, mixed inputs at
    every location, robots within the merge slack of the center, a robot
    so close to it that the window bound is large, rays holding many
    robots, and similarity images of a quarter of them."""
    rng = random.Random(41)
    out = []
    for _ in range(150):
        config = _knife_edge_blocker(rng)
        if config is not None:
            out.append((config, config.points[0]))
    for _ in range(150):
        config = mixed_configuration(rng, rng.randint(3, 12))
        out.extend((config, loc.location) for loc in config.locations)
    for n in (8, 30, 90):
        e = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
        # robots within the merge slack of e, on both sides of it
        pts = [e, on_ray(e, rng.uniform(0, TAU), 3e-10), on_ray(e, rng.uniform(0, TAU), 5e-10)]
        for _ in range(n // 3):
            theta = rng.uniform(0, TAU)
            pts.extend(on_ray(e, theta, rng.uniform(0.1, 1.0)) for _ in range(rng.randint(1, 6)))
        config = Configuration(pts)
        out.append((config, e))
        # one more robot near e (the merge slack is about 2e-9): within the
        # slack, just past it (s above 1/2, so the blocked test scans) and
        # far enough out for a wide window
        for near in (1.2e-9, 3e-9, 1e-7):
            out.append((Configuration(pts + [on_ray(e, rng.uniform(0, TAU), near)]), e))
    tiny = Tolerance(eps_len=1e-14)
    for near in (2e-14, 1e-12, 1e-8):
        e = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
        pts = [e] * 3 + [on_ray(e, rng.uniform(0, TAU), near)]
        for _ in range(8):
            theta = rng.uniform(0, TAU)
            pts.extend(on_ray(e, theta, rng.uniform(0.3, 1.0)) for _ in range(3))
        out.append((Configuration(pts, tiny), e))
    for config, e in out[::4]:
        frame = Similarity.random(rng)
        out.append((frame.apply_config(config), frame(e)))
    return out


def test_indexed_blocked_matches_scan(monkeypatch):
    # with the center's ray index built, the blocked test reads a window of
    # it, at any size; it must give the scan's answer on every robot
    windows = []
    original = gathering._blocker_window
    monkeypatch.setattr(gathering, "_blocker_window", lambda *args: windows.append(1) or original(*args))
    checked = blocked = 0
    for config, e in _blocked_inputs():
        rays = symmetry.Rays.of(config, e)
        if not rays.off:
            continue
        rays.index
        for r in config.points:
            if dist(r, e) <= config.merge_slack:
                continue
            expected = blocked_reference(config, r, e)
            assert _blocked(config, r, e) == expected, (config, r, e)
            checked += 1
            blocked += expected
    assert checked > 3000 and blocked > 400 and 0 < len(windows) < checked


def _multiple_snapshot(rng, n):
    """Two robots on a point e and the rest in pairs on rays through it, the
    outer robot of each pair blocked by the inner one."""
    e = Point(rng.random(), rng.random())
    pts = [e, e]
    rays = (n - 1) // 2
    for r in range(rays):
        theta = (r + 0.25 + 0.5 * rng.random()) * TAU / rays
        inner = rng.uniform(0.2, 0.6)
        for radius in [inner, inner + rng.uniform(0.2, 0.6)][: min(2, n - 2 - 2 * r)]:
            pts.append(on_ray(e, theta, radius))
    return Configuration(pts)


def test_indexed_blocked_tests_a_few_robots(monkeypatch):
    # n=160 class M: once the first side step has built the ray index, each
    # blocked test filters a handful of robots instead of all 160
    sizes = []
    original = gathering._blocker_window

    def counted(*args):
        window = original(*args)
        sizes.append(len(window))
        return window

    monkeypatch.setattr(gathering, "_blocker_window", counted)
    config = _multiple_snapshot(random.Random(160), 160)
    cls = classify(config)
    assert cls.tag == TAG_MULTIPLE and config.n == 160
    decisions = [compute(config, i, cls) for i in range(config.n)]
    rules = Counter(d.rule for d in decisions)
    assert rules == {RULE_STAY: 2, RULE_M_DIRECT: 79, RULE_M_SIDESTEP: 79}
    # robot 2 is the first tested, robot 3 the first blocked; from robot 4
    # on every test reads the index
    assert len(sizes) == config.n - 4 and max(sizes) <= 8
    for r in config.points[2:]:
        assert _blocked(config, r, cls.elected) == blocked_reference(config, r, cls.elected)


def _sidestep_outcome(fn, config, i, elected):
    try:
        return fn(config, i, elected).hex()
    except (DegenerateAngle, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


def _sidestep_inputs():
    """(configuration, elected point) pairs: class-M inputs, queues on rays
    through a stack, everyone on one ray, and a tiny ``eps_len`` with a
    robot so close to the stack that ``angle_cw`` at the default tolerance
    would refuse its ray."""
    rng = random.Random(52)
    out = []
    for _ in range(200):
        config = mixed_configuration(rng, rng.randint(4, 12))
        cls = classify(config)
        if cls.tag == TAG_MULTIPLE:
            out.append((config, cls.elected))
    for n in (8, 20, 60):
        for _ in range(4):
            e = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
            pts = [e] * 3
            while len(pts) < n:
                theta = rng.uniform(0, TAU)
                pts.extend(on_ray(e, theta, rng.uniform(0.2, 1.5)) for _ in range(rng.randint(1, 3)))
            out.append((Configuration(pts), e))
    for k in range(2, 6):
        e = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
        theta = rng.uniform(0, TAU)
        out.append((Configuration([e] * 2 + [on_ray(e, theta, 0.3 * j) for j in range(1, k)]), e))
    tiny = Tolerance(eps_len=1e-14)
    for near in (1e-12, 1e-10, 1e-8):
        e = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
        pts = [e] * 3 + [on_ray(e, rng.uniform(0, TAU), near)]
        pts += [on_ray(e, rng.uniform(0, TAU), rng.uniform(0.5, 1.0)) for _ in range(6)]
        out.append((Configuration(pts, tiny), e))
    for config, e in out[::4]:
        frame = Similarity.random(rng)
        out.append((frame.apply_config(config), frame(e)))
    return out


def test_sidestep_matches_eager_count():
    """The off-ray count now follows the sweep; the reference counts first."""
    outcomes = Counter()
    for config, elected in _sidestep_inputs():
        for i, r in enumerate(config.points):
            if dist(r, elected) <= config.merge_slack:
                continue
            expected = _sidestep_outcome(sidestep_angle_reference, config, i, elected)
            assert _sidestep_outcome(_sidestep_angle, config, i, elected) == expected, (config, i)
            outcomes[expected[0] if isinstance(expected, tuple) else expected == TAU.hex()] += 1
    assert outcomes["DegenerateAngle"] == 0 and outcomes[True] >= 4 and outcomes[False] > 500
