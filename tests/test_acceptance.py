"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  The long sweep (criterion 6) is shared with criteria 7 and 8
through a session fixture.
"""

import hashlib
import itertools
import random
import time

import pytest

from gathersim import (
    AdversarySpec,
    Configuration,
    SimParams,
    classify,
    compute,
    detect_quasi_regular,
    median_interval,
    moving_set,
    run,
    safe_points,
    step,
    weber_numeric,
)
from gathersim.configuration import (
    TAG_ASYMMETRIC,
    TAG_BIVALENT,
    TAG_L1W,
    TAG_L2W,
    TAG_MULTIPLE,
    TAG_QREGULAR,
)
from gathersim.generators import (
    broken_quasi_regular,
    collinear_configuration,
    construct_quasi_regular,
    symmetric_configuration,
    uniform_configuration,
)
from gathersim.geometry import dist
from gathersim.simulator import (
    OUTCOME_GATHERED,
    SimState,
    check_transition,
    trace_lines,
)
from helpers import Similarity, mixed_configuration


def report(number: int, name: str, failures: list, detail: str) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[acceptance] criterion {number} ({name}): {status} ({detail})")
    assert not failures, failures[:10]


# --- criterion 1: partition ---------------------------------------------------------


def _partition_violations(config, cls):
    failures = []
    locs = config.locations
    mults = sorted(l.multiplicity for l in locs)
    bivalent_shape = len(locs) == 2 and mults[0] == mults[1]
    if (cls.tag == TAG_BIVALENT) != bivalent_shape:
        failures.append(("bivalent definition", config))
    if cls.tag == TAG_MULTIPLE and mults.count(mults[-1]) != 1:
        failures.append(("multiple definition", config))
    if cls.tag in (TAG_L1W, TAG_L2W):
        if not config.is_linear:
            failures.append(("linear class on non-linear input", config))
        else:
            lo, hi = median_interval(config)
            if (dist(lo, hi) <= config.merge_slack) != (cls.tag == TAG_L1W):
                failures.append(("median uniqueness mismatch", config))
    if cls.tag in (TAG_QREGULAR, TAG_ASYMMETRIC) and config.is_linear:
        failures.append(("non-linear class on linear input", config))
    # structure of linear configurations
    if len(locs) == 2 and cls.tag not in (TAG_BIVALENT, TAG_MULTIPLE):
        failures.append(("|U|=2 outside B or M", config))
    if config.is_linear and len(locs) == 3 and cls.tag not in (TAG_MULTIPLE, TAG_L1W):
        failures.append(("linear |U|=3 outside M or L1W", config))
    if cls.tag == TAG_L2W and len(locs) < 4:
        failures.append(("L2W with fewer than four locations", config))
    return failures


def test_criterion_1_partition():
    rng = random.Random(1001)
    started = time.time()
    failures = []
    seen = set()
    for _ in range(10_000):
        config = mixed_configuration(rng, rng.randint(1, 12))
        cls = classify(config)
        seen.add(cls.tag)
        failures.extend(_partition_violations(config, cls))
    elapsed = time.time() - started
    if elapsed >= 60:
        failures.append(("runtime", elapsed))
    if seen != {"B", "M", "L1W", "L2W", "QR", "A"}:
        failures.append(("classes not all exercised", seen))
    report(1, "partition", failures, f"10000 configurations, all 6 classes seen, {elapsed:.1f}s")


# --- criterion 2: safe points --------------------------------------------------------


def test_criterion_2_safe_points():
    rng = random.Random(1001)  # same stream as criterion 1
    failures = []
    non_linear = with_safe = 0
    for _ in range(10_000):
        config = mixed_configuration(rng, rng.randint(1, 12))
        cls = classify(config)
        safe = safe_points(config)
        if not config.is_linear:
            non_linear += 1
            if not safe:
                failures.append(("non-linear without safe point", config))
            else:
                with_safe += 1
        if cls.tag in (TAG_BIVALENT, TAG_L2W) and safe:
            failures.append(("safe point in B or L2W", config))
    report(2, "safe points", failures, f"{with_safe}/{non_linear} non-linear configs carry a safe point")


# --- criterion 3: quasi-regularity oracle -------------------------------------------


def test_criterion_3_quasi_regular_detection():
    rng = random.Random(1003)
    started = time.time()
    failures = []
    for _ in range(200):
        built = construct_quasi_regular(rng, m=rng.randint(2, 6))
        res = detect_quasi_regular(built.config)
        if res is None:
            failures.append(("constructed instance undetected", built.config))
            continue
        if dist(res.center, built.center) > 1e-9 * built.config.diameter:
            failures.append(("center off", built.config, res.center, built.center))
        if res.m < built.m:
            failures.append(("order below construction", res.m, built.m))
    for _ in range(200):
        broken = broken_quasi_regular(rng)
        if detect_quasi_regular(broken) is not None:
            failures.append(("perturbed instance accepted", broken))
    elapsed = time.time() - started
    if elapsed >= 60:
        failures.append(("runtime", elapsed))
    report(3, "quasi-regularity oracle", failures, f"200 detected + 200 rejected, {elapsed:.1f}s")


# --- criterion 4: Weber invariance ----------------------------------------------------


def _weber_ref(config, cls):
    if config.is_linear:
        lo, hi = median_interval(config)
        if dist(lo, hi) > config.merge_slack:
            return None
        return lo
    return weber_numeric(config)


def test_criterion_4_weber_invariance():
    rng = random.Random(1004)
    failures = []
    configs = []
    while len(configs) < 100:
        n = rng.choice([3, 5, 5, 6, 7, 9])
        config = collinear_configuration(rng, n, unique_median=(n % 2 == 1) or None or True)
        if classify(config).tag == TAG_L1W:
            configs.append(config)
    while len(configs) < 200:
        roll = rng.random()
        if roll < 0.4:
            config = symmetric_configuration(rng)
        elif roll < 0.7:
            config = construct_quasi_regular(rng).config
        else:
            config = construct_quasi_regular(rng, park_deficits=False).config
        if classify(config).tag == TAG_QREGULAR:
            configs.append(config)

    rounds_checked = 0
    for idx, config in enumerate(configs):
        adv = AdversarySpec(
            activation="random" if idx % 2 else "synchronous",
            stop_policy="minimal" if idx % 3 else "full_move",
        )
        params = SimParams(delta=rng.uniform(0.08, 0.33) * config.diameter, seed=idx)
        state = SimState(0, config, [False] * config.n, [0] * config.n)
        sim_rng = random.Random(idx)
        for _ in range(10):
            cls = state.config.cls
            if cls.tag not in (TAG_L1W, TAG_QREGULAR):
                break
            tol = 1e-6 * state.config.diameter
            w_before = _weber_ref(state.config, cls)
            if w_before is None or dist(cls.weber, w_before) > tol:
                failures.append(("detected center vs numeric weber", state.config))
                break
            state, _ = step(state, adv, params, sim_rng)
            w_after = _weber_ref(state.config, state.config.cls)
            if w_after is None or dist(w_before, w_after) > tol:
                failures.append(("weber moved", config, w_before, w_after))
                break
            rounds_checked += 1
    report(4, "Weber invariance", failures, f"200 configs, {rounds_checked} simulated rounds checked")


# --- criterion 5: frame invariance ----------------------------------------------------


def test_criterion_5_frame_invariance():
    rng = random.Random(1005)
    failures = []
    checked = 0
    while checked < 500:
        config = mixed_configuration(rng, rng.randint(2, 10))
        cls = classify(config)
        if cls.tag == TAG_BIVALENT:
            continue
        i = rng.randrange(config.n)
        sim = Similarity.random(rng)
        image = sim.apply_config(config)
        got = compute(image, i).destination
        want = sim(compute(config, i, cls).destination)
        if dist(got, want) > 1e-9 * max(image.diameter, abs(want.x), abs(want.y), 1.0):
            failures.append(("frame-dependent destination", config, i))
        checked += 1
    report(5, "frame invariance", failures, "500 (configuration, robot, similarity) triples")


# --- criterion 6: wait-freedom and termination (shared sweep) --------------------------


def _initial_config(rng, n):
    roll = rng.random()
    if roll < 0.6:
        return uniform_configuration(rng, n)
    if roll < 0.8:
        while True:
            config = collinear_configuration(rng, n)
            if classify(config).tag != TAG_BIVALENT and config.diameter > 0:
                return config
    while True:
        config = symmetric_configuration(rng, k=rng.choice([2, 3, 4]), orbits=1)
        if 3 <= config.n <= 8 and classify(config).tag != TAG_BIVALENT:
            return config


@pytest.fixture(scope="session")
def sweep_runs():
    rng = random.Random(1006)
    adversaries = ["synchronous", "random", "round_robin", "adversarial_greedy"]
    stops = ["full_move", "minimal"]
    cells = list(itertools.product(adversaries, stops, range(4)))  # 32 cells
    runs = []
    started = time.time()
    for i in range(500):
        adversary, stop, crash_slot = cells[i % len(cells)]
        config = _initial_config(rng, 3 + (i // len(cells)) % 6)
        n = config.n
        crash_counts = [0, 1, max(n - 2, 0), n - 1]
        crashes = min(crash_counts[crash_slot], n - 1)
        schedule = tuple(
            (rng.randrange(0, 25), robot) for robot in rng.sample(range(n), crashes)
        )
        adv = AdversarySpec(
            activation=adversary,
            activation_prob=0.5,
            stop_policy=stop,
            crash_schedule=schedule,
        )
        params = SimParams(
            delta=rng.uniform(0.05, 0.12) * config.diameter,
            max_rounds=10_000,
            seed=10_000 + i,
        )
        result = run(config, adv, params)
        runs.append(
            {
                "index": i,
                "config": config,
                "adv": adv,
                "params": params,
                "result": result,
            }
        )
    elapsed = time.time() - started
    return {"runs": runs, "elapsed": elapsed}


def test_sweep_traces_are_pinned(sweep_runs):
    digest = hashlib.sha256()
    for entry in sweep_runs["runs"]:
        result = entry["result"]
        digest.update(trace_lines(result.records).encode())
        digest.update(f"{result.outcome}|{result.rounds}\n".encode())
    assert digest.hexdigest() == "b18ce9c18487d8fb3d9bfbdd3594590c38617a9d05d1b68eb030234d9f4be912"


def test_criterion_6_wait_freedom_and_termination(sweep_runs):
    failures = []
    for entry in sweep_runs["runs"]:
        result = entry["result"]
        if result.outcome != OUTCOME_GATHERED:
            failures.append((entry["index"], result.outcome, result.detail))
            continue
        if result.rounds > 10_000:
            failures.append((entry["index"], "too many rounds", result.rounds))
        if any(record.cls == TAG_BIVALENT for record in result.records):
            failures.append((entry["index"], "bivalent state in trace"))
    # independent wait-freedom recheck on a sample of recorded rounds
    rng = random.Random(99)
    for entry in rng.sample(sweep_runs["runs"], 25):
        for record in entry["result"].records[:-1]:
            config = Configuration(record.positions, entry["config"].tol)
            moving = moving_set(config)
            stationary = [
                loc.location
                for loc in config.locations
                if all(dist(loc.location, m) > config.merge_slack for m in moving)
            ]
            if len(stationary) > 1:
                failures.append((entry["index"], record.round, "stationary > 1"))
    elapsed = sweep_runs["elapsed"]
    if elapsed >= 600:
        failures.append(("runtime", elapsed))
    report(
        6,
        "wait-freedom and termination",
        failures,
        f"500 runs gathered, sweep took {elapsed:.0f}s",
    )


# --- criterion 7: class transitions ----------------------------------------------------


def _replay_transitions(entry):
    """Re-validate every recorded round pair straight from the trace."""
    failures = []
    records = entry["result"].records
    params = entry["params"]
    tol = entry["config"].tol
    for rec, nxt in zip(records, records[1:]):
        prev_config = Configuration(rec.positions, tol)
        next_config = Configuration(nxt.positions, tol)
        if prev_config.cls.tag != rec.cls:
            failures.append((entry["index"], rec.round, "trace class mismatch"))
            continue
        violation = check_transition(prev_config, next_config, params.delta)
        if violation is not None:
            failures.append((entry["index"], rec.round, violation))
    return failures


def test_criterion_7_class_transitions(sweep_runs):
    failures = []
    total_checks = sum(entry["result"].transition_checks for entry in sweep_runs["runs"])
    if total_checks == 0:
        failures.append(("no transition checks ran",))
    for entry in sweep_runs["runs"]:
        if entry["result"].outcome != OUTCOME_GATHERED:
            failures.append((entry["index"], "engine reported a violation", entry["result"].detail))
    rng = random.Random(98)
    replayed = 0
    for entry in rng.sample(sweep_runs["runs"], 40):
        failures.extend(_replay_transitions(entry))
        replayed += len(entry["result"].records) - 1
    report(
        7,
        "class transitions",
        failures,
        f"{total_checks} engine checks, {replayed} trace pairs replayed independently",
    )


# --- criterion 8: determinism -----------------------------------------------------------


def test_criterion_8_determinism(sweep_runs):
    rng = random.Random(97)
    failures = []
    for entry in rng.sample(sweep_runs["runs"], 10):
        replayed = run(entry["config"], entry["adv"], entry["params"])
        if trace_lines(replayed.records) != trace_lines(entry["result"].records):
            failures.append((entry["index"], "trace differs on replay"))
    report(8, "determinism", failures, "10 runs replayed byte-identically")
