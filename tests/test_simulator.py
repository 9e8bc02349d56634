import json
import math
import random
from pathlib import Path

import pytest

from gathersim import (
    AdversarySpec,
    Configuration,
    Point,
    SimParams,
    SimState,
    classify,
    run,
    step,
)
from gathersim import configuration, gathering, simulator
from gathersim.configuration import ALL_TAGS, TAG_ASYMMETRIC, TAG_BIVALENT, TAG_L2W, TAG_QREGULAR
from gathersim.errors import BivalentInitial, TooFewRobots
from gathersim.generators import uniform_configuration
from gathersim.geometry import dist
from gathersim.simulator import (
    OUTCOME_GATHERED,
    OUTCOME_MAX_ROUNDS,
    OUTCOME_VIOLATION,
    LocalFrame,
    TraceRecord,
    check_transition,
    dumps_17g,
    read_trace,
    trace_lines,
)
from gathersim.symmetry import weber_numeric
from references import bits, greedy_activation_reference, greedy_keys_reference, trace_lines_reference

SQUARE = Configuration([(1, 1), (-1, 1), (-1, -1), (1, -1)])
L2W_LINE = Configuration([(0, 0), (1, 0), (3, 0), (4, 0)])


def fresh_state(config):
    return SimState(0, config, [False] * config.n, [0] * config.n)


def test_step_square_full_move_gathers():
    rng = random.Random(7)
    state, record = step(fresh_state(SQUARE), AdversarySpec(), SimParams(delta=2.0), rng)
    assert state.config.points != SQUARE.points
    assert record.cls == TAG_QREGULAR
    assert all(dist(p, Point(0, 0)) <= 1e-9 for p in state.config.points)


def test_step_square_minimal_keeps_center():
    rng = random.Random(7)
    params = SimParams(delta=0.1)
    adv = AdversarySpec(stop_policy="minimal")
    state, record = step(fresh_state(SQUARE), adv, params, rng)
    for old, new in zip(SQUARE.points, state.config.points):
        assert dist(old, new) == pytest.approx(0.1)
        assert dist(new, Point(0, 0)) == pytest.approx(math.sqrt(2) - 0.1)
    cls = classify(state.config)
    assert cls.tag == TAG_QREGULAR
    assert dist(cls.weber, Point(0, 0)) <= 1e-9
    assert dist(weber_numeric(state.config), Point(0, 0)) <= 1e-9


def test_mirror_tie_start_gathers():
    """Six robots in three mirror pairs whose tied pair is also the
    diametral pair gather under synchronous activation, every robot's
    decision checked in its own local frame, on every seed."""
    points = json.loads((Path(__file__).parent / "data" / "mirror_tie.json").read_text())["points"]
    config = Configuration(points)
    for seed in range(10):
        result = run(config, AdversarySpec(), SimParams(delta=config.diameter / 20, seed=seed))
        assert result.outcome == OUTCOME_GATHERED, (seed, result.detail)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: the Weber search stops 0.0137*D from this start's true "
    "Weber point, so it classifies A; every seed ends with 'round 12: QR -> A'",
)
def test_near_collinear_quasi_regular_start_gathers():
    """Four robots on two pairs of exactly opposite rays through the
    origin, the pairs 0.025 degrees apart: the origin is their Weber point,
    of order 2.  With no crashes and minimal stops every seed must gather."""
    points = json.loads((Path(__file__).parent / "data" / "qr_near_collinear.json").read_text())["points"]
    config = Configuration(points)
    adv = AdversarySpec(stop_policy="minimal")
    for seed in range(10):
        result = run(config, adv, SimParams(delta=config.diameter / 100, seed=seed))
        assert result.outcome == OUTCOME_GATHERED, (seed, result.detail)


def test_step_l2w_endpoint_activation_leaves_line():
    # activate only the endpoint robot: fairness bound high, round robin from 0
    adv = AdversarySpec(activation="round_robin")
    params = SimParams(delta=10.0, fairness_bound=100)
    rng = random.Random(1)
    state, record = step(fresh_state(L2W_LINE), adv, params, rng)
    assert record.activated == [0]
    assert state.config.points[0] != L2W_LINE.points[0]
    cls = classify(state.config)
    assert cls.tag not in (TAG_BIVALENT, TAG_L2W)


def test_run_square_trace_has_terminal_record():
    result = run(SQUARE, AdversarySpec(), SimParams(delta=2.0, seed=7))
    assert result.outcome == OUTCOME_GATHERED
    assert result.rounds == 1
    assert len(result.records) == 2
    assert result.records[-1].gathered
    assert result.records[-1].activated == []


def test_run_random_configs_gather():
    rng = random.Random(40)
    for n in range(3, 8):
        config = uniform_configuration(rng, n)
        result = run(config, AdversarySpec(), SimParams(delta=0.05, seed=n, max_rounds=10_000))
        assert result.outcome == OUTCOME_GATHERED, result.detail


def test_run_survives_max_crashes():
    rng = random.Random(41)
    config = uniform_configuration(rng, 4)
    adv = AdversarySpec(crash_schedule=((0, 0), (0, 1), (0, 2)))
    result = run(config, adv, SimParams(delta=0.05, seed=5, max_rounds=10_000))
    assert result.outcome == OUTCOME_GATHERED, result.detail
    assert result.crashes == 3


def test_run_rejects_bivalent_and_tiny():
    bivalent = Configuration([(0, 0), (0, 0), (1, 0), (1, 0)])
    with pytest.raises(BivalentInitial):
        run(bivalent, AdversarySpec(), SimParams(delta=0.1))
    with pytest.raises(TooFewRobots):
        run(Configuration([(0, 0), (1, 1)]), AdversarySpec(), SimParams(delta=0.1))


def test_run_classifies_the_initial_configuration_once(monkeypatch):
    calls = []
    monkeypatch.setattr(configuration, "classify", lambda config: calls.append(config) or classify(config))
    initial = uniform_configuration(random.Random(43), 6)
    result = run(initial, AdversarySpec(), SimParams(delta=0.05, seed=3, max_rounds=10_000))
    assert result.outcome == OUTCOME_GATHERED, result.detail
    assert sum(config is initial for config in calls) == 1


def test_run_validates_crash_budget():
    config = Configuration([(0, 0), (1, 0), (0, 1), (2, 2)])
    with pytest.raises(ValueError):
        run(
            config,
            AdversarySpec(crash_schedule=((0, 0), (0, 1), (0, 2), (0, 3))),
            SimParams(delta=0.1),
        )


def test_crash_freeze_and_visibility():
    rng = random.Random(42)
    config = uniform_configuration(rng, 5)
    adv = AdversarySpec(activation="random", stop_policy="minimal", crash_schedule=((3, 1), (6, 2)))
    result = run(config, adv, SimParams(delta=0.05, seed=9, max_rounds=10_000))
    assert result.outcome == OUTCOME_GATHERED
    frozen: dict[int, Point] = {}
    for record in result.records:
        assert len(record.positions) == config.n  # crashed robots stay visible
        for robot, pos in frozen.items():
            assert record.positions[robot] == pos
        for robot, is_crashed in enumerate(record.crashed):
            if is_crashed and robot not in frozen:
                frozen[robot] = record.positions[robot]
    assert set(frozen) == {1, 2}


def test_movement_floor():
    rng = random.Random(43)
    config = uniform_configuration(rng, 6)
    adv = AdversarySpec(activation="random", stop_policy="random_fraction")
    params = SimParams(delta=0.03, seed=13, max_rounds=10_000)
    result = run(config, adv, params)
    assert result.outcome == OUTCOME_GATHERED
    for record in result.records:
        for (robot, rule, dest), stop in zip(record.decisions, record.stops):
            start = record.positions[robot]
            if rule == "Stay":
                assert stop == start
            else:
                full = dist(start, dest)
                moved = dist(start, stop)
                assert moved >= min(params.delta, full) - 1e-12


def test_fairness_bound_honored():
    rng = random.Random(44)
    config = uniform_configuration(rng, 6)
    adv = AdversarySpec(activation="random", activation_prob=0.2)
    params = SimParams(delta=0.05, seed=3, fairness_bound=4, max_rounds=10_000)
    result = run(config, adv, params)
    assert result.outcome == OUTCOME_GATHERED
    last_seen = {i: -1 for i in range(config.n)}
    for record in result.records[:-1]:
        for i in range(config.n):
            if record.crashed[i]:
                continue
            if i in record.activated:
                last_seen[i] = record.round
            else:
                assert record.round - last_seen[i] <= params.fairness_bound


def test_determinism_byte_identical():
    rng = random.Random(45)
    config = uniform_configuration(rng, 6)
    adv = AdversarySpec(activation="random", stop_policy="random_fraction", crash_schedule=((2, 3),))
    params = SimParams(delta=0.05, seed=77, max_rounds=10_000)
    first = run(config, adv, params)
    second = run(config, adv, params)
    assert trace_lines(first.records) == trace_lines(second.records)
    assert dumps_17g(first.summary()) == dumps_17g(second.summary())


def test_trace_round_trip_parses_exactly():
    result = run(SQUARE, AdversarySpec(), SimParams(delta=2.0, seed=7))
    text = trace_lines(result.records)
    parsed = read_trace(text.splitlines())
    assert parsed == result.records
    # JSON schema fields present
    obj = json.loads(text.splitlines()[0])
    assert set(obj) == {
        "round",
        "class",
        "positions",
        "crashed",
        "activated",
        "decisions",
        "stops",
        "gathered",
    }


def test_local_frame_round_trip():
    rng = random.Random(46)
    for _ in range(50):
        frame = LocalFrame.random(rng, 2.0)
        p = Point(rng.uniform(-3, 3), rng.uniform(-3, 3))
        assert dist(frame.invert_point(frame.apply_point(p)), p) <= 1e-12 * max(1, abs(p.x), abs(p.y))


def test_local_frame_config_image_is_pointwise():
    rng = random.Random(47)
    for _ in range(20):
        frame = LocalFrame.random(rng, 2.0)
        config = uniform_configuration(rng, rng.randint(3, 12))
        image = frame.apply_config(config)
        assert [bits(p) for p in image.points] == [bits(frame.apply_point(p)) for p in config.points]
        assert image.tol == config.tol
        # the same configuration, bit for bit, as one built from the points
        pointwise = Configuration([frame.apply_point(p) for p in config.points], config.tol)
        assert [bits(p) for p in image.points] == [bits(p) for p in pointwise.points]
        assert all(type(p) is Point for p in image.points) and image.n == pointwise.n
        assert [bits(loc.location) for loc in image.locations] == [bits(loc.location) for loc in pointwise.locations]
        assert image.diameter.hex() == pointwise.diameter.hex()


def test_check_transition_rules():
    m_config = Configuration([(0, 0), (0, 0), (4, 0), (8, 0)])
    m_cls = classify(m_config)
    moved = Configuration([(0, 0), (0, 0), (2, 0), (8, 0)])
    assert check_transition(m_cls, classify(moved), m_config, moved, 0.1) is None

    # M must keep its elected point
    wrong = Configuration([(5, 5), (5, 5), (5, 5), (8, 0)])
    assert check_transition(m_cls, classify(wrong), m_config, wrong, 0.1) is not None

    # interior-only L2W activation keeps the class; that is allowed
    l2_cls = classify(L2W_LINE)
    interior_moved = Configuration([(0, 0), (1.5, 0), (3, 0), (4, 0)])
    assert check_transition(l2_cls, classify(interior_moved), L2W_LINE, interior_moved, 0.1) is None

    # an endpoint robot that moves along the line keeps L2W: a violation
    stretched = Configuration([(-1, 0), (1, 0), (3, 0), (4, 0)])
    assert classify(stretched).tag == TAG_L2W
    assert check_transition(l2_cls, classify(stretched), L2W_LINE, stretched, 0.1) == (
        "L2W -> L2W although an endpoint robot moved"
    )

    # nothing may become bivalent
    bivalent = Configuration([(0, 0), (0, 0), (1, 0), (1, 0)])
    assert check_transition(l2_cls, classify(bivalent), L2W_LINE, bivalent, 0.1) is not None

    # class A: a round that moves no robot needs no progress, equal points
    # in a fresh configuration included
    a_config = Configuration([(0, 0), (3, 0.5), (1, 4), (5, 2), (2, -3)])
    a_cls = classify(a_config)
    assert a_cls.tag == TAG_ASYMMETRIC
    for same in (a_config, Configuration(a_config.points)):
        assert check_transition(a_cls, classify(same), a_config, same, 0.1) is None

    # robot 2 steps toward the elected point: the distance sum falls by the
    # step, which must be at least 0.9 * delta
    p, e = a_config.points[2], a_cls.elected
    for step_len, expected in ((0.05, "A -> A without potential progress"), (0.1, None)):
        f = step_len / dist(p, e)
        points = list(a_config.points)
        points[2] = Point(p.x + f * (e.x - p.x), p.y + f * (e.y - p.y))
        moved = Configuration(points)
        moved_cls = classify(moved)
        assert moved_cls.tag == TAG_ASYMMETRIC and moved_cls.elected == e
        assert check_transition(a_cls, moved_cls, a_config, moved, 0.1) == expected


def test_transition_checks_counted():
    result = run(SQUARE, AdversarySpec(stop_policy="minimal"), SimParams(delta=0.25, seed=1))
    assert result.outcome == OUTCOME_GATHERED
    assert result.transition_checks >= result.rounds - 1


def test_l2w_with_crashed_endpoints_contracts_to_midpoint():
    # both endpoint robots crash immediately; interior robots must still
    # gather, converging on the midpoint of the frozen endpoints
    config = Configuration([(0, 0), (1, 0), (3, 0), (4, 0)])
    adv = AdversarySpec(stop_policy="minimal", crash_schedule=((0, 0), (0, 3)))
    result = run(config, adv, SimParams(delta=0.5, seed=4, max_rounds=10_000))
    assert result.outcome == OUTCOME_GATHERED, result.detail
    final = result.records[-1]
    for robot in (1, 2):
        assert dist(final.positions[robot], Point(2, 0)) <= 1e-9
    assert final.positions[0] == Point(0, 0)
    assert final.positions[3] == Point(4, 0)


def test_greedy_adversary_still_gathers():
    rng = random.Random(47)
    config = uniform_configuration(rng, 5)
    adv = AdversarySpec(activation="adversarial_greedy", stop_policy="minimal")
    result = run(config, adv, SimParams(delta=0.05, seed=21, max_rounds=10_000))
    assert result.outcome == OUTCOME_GATHERED, result.detail


def test_max_rounds_exceeded_outcome():
    rng = random.Random(48)
    config = uniform_configuration(rng, 5)
    result = run(config, AdversarySpec(stop_policy="minimal"), SimParams(delta=0.01, seed=2, max_rounds=3))
    assert result.outcome == OUTCOME_MAX_ROUNDS
    assert result.rounds == 3
    assert not result.records[-1].gathered


def test_dumps_17g_round_trips_floats():
    values = [0.1, 1 / 3, math.pi, 1e-17, 123456.789, 2.0]
    for v in values:
        assert float(json.loads(dumps_17g(v))) == v


# Random activation, minimal stops, no crashes: (start, delta, run seed).
# Two robots of one stack make minimal moves toward the recomputed Weber
# point in different rounds and land one ulp apart; they count as one
# location while the diameter is large, and once the last robot arrives the
# diameter is that ulp, so with a slack of eps_len * diameter the stack
# split and a local frame, rounding the ulp away, decided differently.
ONE_ULP_STACKS = [
    (
        [(-0.37344991549814444, -1.3985550904220818), (-0.682163913613851, 0.11864133379797265),
         (0.7861237313494815, -0.3726027134399909)],
        0.09864616856829456,
        1323695996,
    ),
    (
        [(0.2743210323833347, 0.04513759536816442), (-0.02249775969579937, -2.0181314468771916),
         (-2.0857668019411557, -1.7213126547980577), (-1.7889480098620218, 0.34195638744729845)],
        0.22071871498071402,
        763412059,
    ),
    (
        [(0.6168310772032425, 0.9582975139974735), (1.5082616857524478, -0.14986174722971907),
         (0.40010242452525535, -1.0412923557789246), (-0.4913281840239502, 0.06686690544826794)],
        0.10486164206289053,
        1018357362,
    ),
]


@pytest.mark.parametrize("case", range(len(ONE_ULP_STACKS)))
def test_stack_one_ulp_apart_does_not_split(case):
    corners, delta, seed = ONE_ULP_STACKS[case]
    config = Configuration([p for p in corners for _ in range(2)])
    adv = AdversarySpec(activation="random", activation_prob=0.5, stop_policy="minimal")
    result = run(config, adv, SimParams(delta=delta, max_rounds=10_000, seed=seed))
    assert result.outcome == OUTCOME_GATHERED, result.detail


def test_merge_slack_floor_is_float_resolution():
    # a gap of a few ulps merges whatever the diameter, and only such gaps
    # do at small diameters far from the origin
    x = 1e6
    pair = Configuration([(x, 1.0), (math.nextafter(x, math.inf), 1.0)])
    assert len(pair.locations) == 1 and pair.diameter > 0.0
    apart = Configuration([(x, 1.0), (x + 1e-6, 1.0)])
    assert len(apart.locations) == 2


def test_frame_monitor_tolerance_is_relative_to_the_diameter(monkeypatch):
    # at a diameter of about 1e-3, a local-frame destination that maps back
    # 1e-7 of the diameter off is a frame-dependent decision
    rng = random.Random(3)
    config = Configuration([(0.3 + 1e-3 * rng.random(), 0.4 + 1e-3 * rng.random()) for _ in range(5)])
    assert 5e-4 < config.diameter < 2e-3
    adv = AdversarySpec()
    params = SimParams(delta=0.05 * config.diameter, max_rounds=1000, seed=1)
    assert run(config, adv, params).outcome == OUTCOME_GATHERED
    offset = 1e-7 * config.diameter
    invert = LocalFrame.invert_point

    def shifted(frame, q):
        x, y = invert(frame, q)
        return Point(x + offset, y)

    monkeypatch.setattr(LocalFrame, "invert_point", shifted)
    result = run(config, adv, params)
    assert result.outcome == OUTCOME_VIOLATION and "frame-dependent" in result.detail


# --- rounds that move no robot -------------------------------------------------------


def test_step_without_a_move_keeps_the_configuration():
    # robot 0 sits on the elected point of this M configuration and stays
    config = Configuration([(0, 0), (0, 0), (4, 0), (8, 1)])
    assert classify(config).tag == "M"
    adv = AdversarySpec(activation="round_robin", stop_policy="minimal")
    params = SimParams(delta=0.5)
    state, record = step(fresh_state(config), adv, params, random.Random(1))
    assert record.activated == [0] and record.decisions[0][1] == gathering.RULE_STAY
    assert state.config is config

    nobody = AdversarySpec(activation="random", activation_prob=0.0)
    state, record = step(fresh_state(config), nobody, params, random.Random(1))
    assert record.activated == [] and state.config is config

    moving = SimState(2, config, [False] * 4, [0] * 4)
    state, record = step(moving, adv, params, random.Random(1))
    assert record.activated == [2] and state.config is not config
    assert state.config.points != config.points and state.config.points[2] != config.points[2]


@pytest.mark.parametrize(
    "activation, crashes",
    [("adversarial_greedy", ()), ("round_robin", ((0, 1), (3, 4)))],
)
def test_run_classifies_each_distinct_configuration_once(monkeypatch, activation, crashes):
    images = []
    apply_config = LocalFrame.apply_config
    monkeypatch.setattr(LocalFrame, "apply_config", lambda self, c: images.append(apply_config(self, c)) or images[-1])
    calls = []
    monkeypatch.setattr(configuration, "classify", lambda config: calls.append(config) or classify(config))
    decided = []
    compute = gathering.compute
    monkeypatch.setattr(gathering, "compute", lambda config, *args: decided.append(config) or compute(config, *args))
    initial = uniform_configuration(random.Random(49), 6)
    adv = AdversarySpec(activation=activation, stop_policy="minimal", crash_schedule=crashes)
    result = run(initial, adv, SimParams(delta=0.05, seed=5, max_rounds=10_000))
    assert result.outcome == OUTCOME_GATHERED, result.detail
    framed = {id(image) for image in images}
    global_calls = [config for config in calls if id(config) not in framed]
    positions = [[bits(p) for p in record.positions] for record in result.records]
    distinct = 1 + sum(a != b for a, b in zip(positions, positions[1:]))
    assert distinct < len(result.records)
    assert len(global_calls) == distinct
    # each one is decided once per location, shared by run and step
    classified = {id(config) for config in global_calls}
    global_decisions = [config for config in decided if id(config) in classified]
    assert len(global_decisions) == sum(len(config.locations) for config in global_calls)


# --- the greedy lookahead ------------------------------------------------------------


def _greedy_inputs(config, crashed, forced, delta):
    cls = classify(config)
    decisions = {}
    for loc in config.locations:
        decision = gathering.compute(config, loc.indices[0], cls)
        for i in loc.indices:
            if not crashed[i]:
                decisions[i] = decision
    state = SimState(0, config, crashed, [0] * config.n)
    live = [i for i in range(config.n) if not crashed[i]]
    return state, SimParams(delta=delta), set(forced), live, decisions


def _greedy_cases():
    rng = random.Random(50)
    for _ in range(150):
        n = rng.randint(3, 12)
        pts = [Point(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
        for _ in range(rng.randint(0, 2)):
            # a second robot on a robot, or within the merge slack of one
            a, b = rng.sample(range(n), 2)
            pts[b] = Point(pts[a].x + rng.choice((0.0, 1e-13, 5e-11)), pts[a].y)
        yield Configuration(pts), rng, False
    for k in (4, 6):
        for scale in (1.0, 3.5):
            phase = rng.uniform(0, math.tau)
            turns = [phase + j * math.tau / k for j in range(k)]
            ring = [Point(scale * math.cos(t), scale * math.sin(t)) for t in turns]
            yield Configuration(ring), rng, True
            yield Configuration(ring + [Point(0.0, 0.0)]), rng, True
        yield Configuration([(1, 1), (-1, 1), (-1, -1), (1, -1)]), rng, True


def test_greedy_lookahead_matches_reference():
    ties = ring_ties = merges = 0
    for config, rng, ring in _greedy_cases():
        if classify(config).tag == TAG_BIVALENT:
            continue
        for _ in range(4):
            crashed = [rng.random() < 0.2 for _ in range(config.n)]
            crashed[rng.randrange(config.n)] = False
            live = [i for i in range(config.n) if not crashed[i]]
            forced = rng.sample(live, rng.randint(0, len(live) // 2))
            delta = rng.choice((0.01, 0.2, 1.0, 3.0)) * config.diameter
            args = _greedy_inputs(config, crashed, forced, delta)
            assert simulator._greedy_activation(*args) == greedy_activation_reference(*args)
            metrics = [key[0] for key in greedy_keys_reference(*args)]
            # the sorted candidate tuple decides between equal minimal
            # metrics; on a ring, between candidates whose spreads add the
            # same distances in different orders
            tie = metrics.count(min(metrics)) > 1
            ties += tie
            ring_ties += tie and ring
            # a minimal move lands a robot within the merge slack of another
            merges += max(m for m, _ in metrics) > max(config.multiplicity_at(config.points[i]) for i in live)
    assert ties >= 20 and ring_ties >= 5 and merges >= 20


# --- the trace writer ----------------------------------------------------------------

EXTREMES = (-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3, 1e-17)


def test_trace_writer_matches_reference():
    rules = [getattr(gathering, name) for name in dir(gathering) if name.startswith("RULE_")]
    assert len(rules) == 7
    rng = random.Random(51)
    records = []
    for rnd in range(40):
        n = rng.randint(1, 6)
        pts = [Point(rng.choice(EXTREMES), rng.choice(EXTREMES)) for _ in range(n)]
        actors = sorted(rng.sample(range(n), rng.randint(0, n)))
        records.append(
            TraceRecord(
                round=rnd,
                cls=rng.choice(ALL_TAGS),
                positions=pts,
                crashed=[rng.random() < 0.3 for _ in range(n)],
                activated=actors,
                decisions=[(i, rng.choice(rules), rng.choice(pts)) for i in actors],
                stops=[Point(rng.uniform(-2, 2), rng.choice(EXTREMES)) for _ in actors],
                gathered=rng.random() < 0.2,
            )
        )
    records.append(TraceRecord(40, "M", [Point(-0.0, 5e-324)] * 3, [True, False, True], [], [], [], True))
    # the writer formats each point object once: records that share point
    # objects, and equal points that differ in the sign of a zero
    shared = [Point(0.0, 1.0), Point(-0.0, 1.0), Point(0.0, -0.0), Point(-0.0, 0.0)]
    assert shared[0] == shared[1] and shared[2] == shared[3]
    for rnd in range(41, 45):
        stops = [shared[rnd % 4], Point(*shared[(rnd + 1) % 4])]
        decisions = [(0, rules[0], stops[0]), (1, rules[1], shared[1])]
        records.append(TraceRecord(rnd, "A", shared, [False] * 4, [0, 1], decisions, stops, False))
    text = trace_lines(records)
    assert text == trace_lines_reference(records)
    assert read_trace(text.splitlines()) == records

    # records made one at a time and dropped by their producer: a point's id
    # may not be taken over by a later point while the writer runs
    def fresh(count):
        for rnd in range(count):
            x = rng.choice(EXTREMES)
            yield TraceRecord(rnd, "QR", [Point(x, -x), Point(-x, x)], [False, False], [], [], [Point(x, x)], False)

    rng = random.Random(52)
    expected = trace_lines_reference(list(fresh(200)))
    rng = random.Random(52)
    assert trace_lines(fresh(200)) == expected
    assert trace_lines([]) == ""
