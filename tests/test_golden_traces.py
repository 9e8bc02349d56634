"""Golden-trace gate: runs and classifications must stay byte-identical.

Each case is a fixed (start, adversary, seed) run whose JSONL trace is hashed
with SHA-256 and compared with the digest recorded when the case was added.
A change to classification, the destination rule, scheduling or trace
serialisation that alters even one byte of one trace fails here; such a
change must re-record the digests and say why in CHANGES.md.

Runs never pass through class B (a bivalent start is rejected and reaching
one is a violation), so a second digest pins the full ``classify`` output
on fixed snapshots of all six classes.  The runs above stop at n = 8 and
that digest at n = 16, so a third pins ``classify`` and every robot's
``compute`` decision on snapshots of every class at n = 24, 40 and 80, a
fourth does the same at n = 160 for the successor sweep, the rotation test
and the side step, and two synchronous runs of 16 and 20 robots pin long
class-A phases.
"""

from __future__ import annotations

import hashlib
import math
import random

import pytest

from gathersim import AdversarySpec, Configuration, Point, SimParams, classify, compute, configuration, run
from gathersim.configuration import ALL_TAGS, TAG_ASYMMETRIC, TAG_BIVALENT, TAG_QREGULAR
from gathersim.generators import (
    bivalent_configuration,
    collinear_configuration,
    construct_quasi_regular,
    multiplicity_configuration,
    symmetric_configuration,
    uniform_configuration,
)
from gathersim.geometry import TAU
from gathersim.gathering import RULE_M_SIDESTEP
from gathersim.simulator import OUTCOME_GATHERED, dumps_17g, trace_lines
from helpers import on_ray
from references import trace_lines_reference


def _polygon(rng: random.Random, n: int) -> Configuration:
    phase = rng.uniform(0, TAU)
    return Configuration(
        [Point(2.0 + math.cos(phase + k * TAU / n), -1.0 + math.sin(phase + k * TAU / n)) for k in range(n)]
    )


def _quasi_regular(rng: random.Random, n: int) -> Configuration:
    while True:
        config = construct_quasi_regular(rng, m=rng.choice((2, 3))).config
        if config.n <= n:
            return config


STARTS = {
    "uniform": uniform_configuration,
    "collinear": collinear_configuration,
    "median": lambda rng, n: collinear_configuration(rng, n, unique_median=True),
    "multiplicity": multiplicity_configuration,
    "symmetric": lambda rng, n: symmetric_configuration(rng, k=n // 2, orbits=1, with_center=n % 2 == 1),
    "quasi_regular": _quasi_regular,
    "polygon": _polygon,
}

# (start kind, at most n robots, activation, stop policy, crashes, seed) -> SHA-256
# of the trace; crashes are none or all but two robots
GOLDEN_RUNS = {
    ("uniform", 5, "synchronous", "full_move", "none", 1): "753aecbdc4ac1a7c19bc0651954891b768157caee541a40b2a525f4f65347905",
    ("uniform", 6, "random", "minimal", "n-2", 2): "7a9c810ecdf09129103bd60b9e680b22b806c0385b46de06f30cdfaddcef96ed",
    ("uniform", 7, "round_robin", "random_fraction", "none", 3): "15251b2690fc272377424ed11411792a316b22603360df977bfa94f5ea4d92fb",
    ("uniform", 8, "adversarial_greedy", "minimal", "n-2", 4): "f7ab789c84b1bf51d210469697ab0eee25d13d21d434b517ed6e5c78b9aa0f52",
    ("uniform", 4, "adversarial_greedy", "full_move", "none", 5): "2bc063e820b6dd4545e9111ff61ad3b17b31fad3cab38c8e11b5bb887e487b83",
    ("uniform", 3, "random", "random_fraction", "n-2", 6): "6bb0cd8d63b43b8080a3ecef236ffa1879525a94d187e4c5d3f4c8be95beb64f",
    ("collinear", 5, "synchronous", "minimal", "n-2", 7): "f47b63b01cca1e2a5e61221da65c6f9120ea6fd0852397b45166e7644b14d92d",
    ("collinear", 6, "random", "full_move", "none", 8): "02c9bbca4c5921e79fde58153a37142bfde6785b4e2d8b04c8aa6f2a60c6b84d",
    ("collinear", 8, "round_robin", "minimal", "n-2", 9): "d22f13b86d93d83dcefb5b3d405c414720c26e0cbe52e475636d1d811b1c461b",
    ("collinear", 7, "adversarial_greedy", "random_fraction", "none", 10): "7cd8963ebe556d93236282c41ce47d06e7ea582b23d24b79899f2bfeda9bd9a4",
    ("median", 7, "synchronous", "random_fraction", "n-2", 11): "b0dd8b3286982cda00db6f9dca32f7edada25b6b61e40291a661b6aedc30573d",
    ("median", 6, "random", "minimal", "none", 12): "796df3cd70ee42bcc4372a727e390bbf72706d0531a1bc5d201583bc59c53fbd",
    ("median", 8, "adversarial_greedy", "full_move", "n-2", 13): "c38fa59c83e9a5de1ce56ae6fe5d3fa82f9a82b8dc277a69a57c65869e12d78a",
    ("median", 5, "round_robin", "full_move", "none", 14): "8b92bed316cd17310a6dbdbb89e29f87f704d5eefbfc4c0dfefc9879ba84d45b",
    ("multiplicity", 6, "synchronous", "minimal", "none", 15): "64e1e330c76ef34ba4a089b5df07a491593445087e224231b71ec81d8533d96f",
    ("multiplicity", 7, "random", "random_fraction", "n-2", 16): "3b851b52d1e96205032516c44e673b9cabd50da31750a45c6fae454d9c1970b6",
    ("multiplicity", 8, "round_robin", "full_move", "none", 17): "7829f003eb55fb981bef5c414683c8ac1a9e2ecc1575e4604b391fe7179c7929",
    ("multiplicity", 5, "adversarial_greedy", "minimal", "n-2", 18): "443ba895209d7b22ad5b40f4f49d79b8de5544943cfd93e9170331bd46fa925b",
    ("symmetric", 6, "synchronous", "full_move", "n-2", 19): "15a4741399e0f592e6c49da2f77b921fd36d21bb021a7e7b80d2203a41392229",
    ("symmetric", 7, "random", "minimal", "none", 20): "154690e49bef74b7818fa9c4cbc88e79c68ad2b1f0723bfbacdd70cdb417d1e2",
    ("symmetric", 8, "round_robin", "random_fraction", "n-2", 21): "212c0c37d5170271b867597a8f10bf7849085b74d58a8b5c6ebf1bf876eae3ac",
    ("symmetric", 6, "adversarial_greedy", "minimal", "none", 22): "39621a1c95acc826c70c72f937f74fdd007bd4cd6b6abe2004dbece6fbd86078",
    ("quasi_regular", 6, "synchronous", "random_fraction", "none", 23): "8fad1dddc0125217ca93a14b737875061b912860e1a802a04038d3da5a332231",
    ("quasi_regular", 8, "random", "full_move", "n-2", 24): "5ed9fc1421f753ac759e50802049e0d5cc98bb9838015a46b88e8360e116995a",
    ("quasi_regular", 7, "round_robin", "minimal", "none", 25): "a35fef60f50d0c2c8ac384111082ec2b829aa1f0730ff8a4e965e0864ba4d382",
    ("quasi_regular", 6, "adversarial_greedy", "full_move", "n-2", 26): "494d2c073353c492181fb2a85dec3518676aaf41eeb48d615232d2d1910d5fc8",
    ("polygon", 5, "synchronous", "minimal", "none", 27): "2001fe811e08a8c1e28eff047838269c67f981311befac9b3caa8ce2a9c8dcb4",
    ("polygon", 6, "random", "full_move", "n-2", 28): "3daa232c8e06fd2cd5751407664dc924e4c3ae201ad3bb2dbf2b0d3384d54432",
    ("polygon", 7, "round_robin", "full_move", "n-2", 29): "1c5740fad0a65c5f6234cc81a588b3d97dd661bef55533ffda61674ad33e6b89",
    ("polygon", 8, "adversarial_greedy", "random_fraction", "none", 30): "620a7067bf63eae23ee5e761ea79c01970b3a5b781e4f2cf5baf74a10ab84ad8",
}


def _golden_run(kind: str, n: int, activation: str, stop: str, crashes: str, seed: int):
    rng = random.Random(seed)
    config = STARTS[kind](rng, n)
    assert 3 <= config.n <= n
    robots = rng.sample(range(config.n), 0 if crashes == "none" else config.n - 2)
    adv = AdversarySpec(
        activation=activation,
        stop_policy=stop,
        crash_schedule=tuple((rng.randrange(0, 25), robot) for robot in robots),
    )
    params = SimParams(delta=0.08 * config.diameter, max_rounds=10_000, seed=seed)
    return run(config, adv, params)


@pytest.mark.parametrize("case", sorted(GOLDEN_RUNS), ids=lambda case: "-".join(map(str, case)))
def test_golden_trace(case):
    result = _golden_run(*case)
    assert result.outcome == OUTCOME_GATHERED, result.detail
    text = trace_lines(result.records)
    assert text == trace_lines_reference(result.records)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == GOLDEN_RUNS[case]


def test_golden_runs_cover_classes_and_policies():
    cases = list(GOLDEN_RUNS)
    assert len({c[2] for c in cases}) == 4
    assert {c[3] for c in cases} == {"full_move", "minimal", "random_fraction"}
    assert all(c[1] <= 8 for c in cases)
    assert {c[4] for c in cases} == {"none", "n-2"}
    seen = set()
    for case in cases:
        seen.update(record.cls for record in _golden_run(*case).records)
    assert seen == set(ALL_TAGS) - {TAG_BIVALENT}


def _snapshots() -> list[Configuration]:
    rng = random.Random(2024)
    out = []
    for n in (6, 7, 8, 12, 16):
        out.append(bivalent_configuration(rng, n + n % 2))
        for kind in sorted(STARTS):
            out.append(STARTS[kind](rng, n))
        out.append(construct_quasi_regular(rng).config)
    return out


GOLDEN_CLASSIFY = "c299a10b0497ded8c31fc820679a67414e3d08c16f1d1962a2c09fcc19d0fb94"


def _class_line(cls) -> str:
    return dumps_17g([cls.tag, cls.elected, cls.weber, cls.qreg, cls.endpoints, cls.midpoint])


def test_golden_classify():
    snapshots = _snapshots()
    assert {classify(c).tag for c in snapshots} == set(ALL_TAGS)
    lines = "".join(_class_line(classify(c)) + "\n" for c in snapshots)
    assert hashlib.sha256(lines.encode()).hexdigest() == GOLDEN_CLASSIFY


# --- large snapshots ----------------------------------------------------------------


def _sidestep_multiplicity(rng: random.Random, n: int) -> Configuration:
    """A strict multiplicity maximum with robots queued on rays through it,
    so the outer robot of each queue is blocked and steps aside."""
    elected = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
    pts = [elected] * 3
    while len(pts) < n - 4:
        theta = rng.uniform(0, TAU)
        pts.extend(on_ray(elected, theta, rng.uniform(0.2, 1.5)) for _ in range(rng.randint(1, 3)))
    pts = pts[: n - 4] + [Point(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)]
    return Configuration(pts)


def _parked_quasi_regular(rng: random.Random, n: int) -> Configuration:
    """An m-fold ray structure, m dividing n: one orbit of co-located pairs,
    orbits of single robots with one or two of them parked at the center.
    The pairs tie the center's multiplicity, so the start is not class M."""
    m = rng.choice([m for m in (4, 5, 6, 8) if n % m == 0])
    center = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
    phases = [rng.uniform(0, TAU / m) for _ in range(n // m - 1)]
    slots = [(orbit, j) for orbit in range(1, len(phases)) for j in range(m)]
    parked = set(rng.sample(slots, rng.randint(1, 2)))
    pts = [center] * len(parked)
    for j in range(m):
        pts.extend([on_ray(center, phases[0] + j * TAU / m, 1.6)] * 2)
    for orbit, j in slots:
        if (orbit, j) not in parked:
            pts.append(on_ray(center, phases[orbit] + j * TAU / m, rng.uniform(0.3, 1.5)))
    return Configuration(pts)


def _spread_line(rng: random.Random, n: int) -> Configuration:
    """n distinct robots on a line; for even n the median interval is open."""
    origin = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
    theta = rng.uniform(0, TAU)
    return Configuration([on_ray(origin, theta, rng.uniform(-1, 1)) for _ in range(n)])


def _two_orbit_polygon(rng: random.Random, n: int) -> Configuration:
    """Two regular n/2-gons around an unoccupied center, at different radii."""
    center = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
    k = n // 2
    pts = []
    for radius in (1.0, rng.uniform(0.3, 0.8)):
        phase = rng.uniform(0, TAU)
        pts.extend(on_ray(center, phase + j * TAU / k, radius) for j in range(k))
    return Configuration(pts)


def _large_snapshots() -> list[Configuration]:
    rng = random.Random(4048)
    out = []
    for n in (24, 40, 80):
        out.append(bivalent_configuration(rng, n))
        out.append(multiplicity_configuration(rng, n))
        out.append(_sidestep_multiplicity(rng, n))
        out.append(collinear_configuration(rng, n, unique_median=True))
        out.append(_spread_line(rng, n))
        out.append(_parked_quasi_regular(rng, n))
        out.append(_two_orbit_polygon(rng, n))
        out.append(uniform_configuration(rng, n))
    assert [config.n for config in out] == [n for n in (24, 40, 80) for _ in range(8)]
    return out


GOLDEN_CLASSIFY_LARGE = "6845d83c19acb50793fc1484fa16b73e4c4e3ec2e3548787e042503f3d243ec1"


def test_golden_classify_large():
    lines = []
    tags = set()
    sidesteps = parked_qr = 0
    for config in _large_snapshots():
        cls = classify(config)
        tags.add(cls.tag)
        lines.append(_class_line(cls))
        if cls.tag == TAG_BIVALENT:
            continue
        decisions = [compute(config, i, cls) for i in range(config.n)]
        sidesteps += sum(d.rule == RULE_M_SIDESTEP for d in decisions)
        parked_qr += cls.tag == TAG_QREGULAR and config.multiplicity_at(cls.weber) > 0
        lines.extend(dumps_17g([d.rule, d.destination, d.elected]) for d in decisions)
    assert tags == set(ALL_TAGS)
    assert sidesteps >= 6 and parked_qr == 3
    digest = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
    assert digest == GOLDEN_CLASSIFY_LARGE


# --- larger runs ----------------------------------------------------------------------


def _jittered_grid(rng: random.Random, cols: int, rows: int) -> Configuration:
    """One robot near the center of each cell of a cols x rows grid.

    Such starts are asymmetric with no robot close to the elected safe
    point, so the class-A phase lasts about twenty rounds."""
    return Configuration(
        [
            Point((i + 0.4 + 0.2 * rng.random()) / cols, (j + 0.4 + 0.2 * rng.random()) / rows)
            for i in range(cols)
            for j in range(rows)
        ]
    )


# (grid columns, grid rows, seed) -> SHA-256 of the trace of a synchronous,
# minimal-stop run with delta one hundredth of the diameter
GOLDEN_LARGE_RUNS = {
    (4, 4, 31): "bc8f351af922d87ce5c4a32e1081432c174772cd51089913e734541854f93dbd",
    (5, 4, 32): "5d02c3e9b147c513581ed77eb97425cfb199123d9d18efb56fec5907ba8bdf53",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_LARGE_RUNS), ids=lambda case: "grid{}x{}-{}".format(*case))
def test_golden_trace_large(case):
    cols, rows, seed = case
    config = _jittered_grid(random.Random(seed), cols, rows)
    adv = AdversarySpec(activation="synchronous", stop_policy="minimal")
    params = SimParams(delta=config.diameter / 100.0, max_rounds=10_000, seed=seed)
    result = run(config, adv, params)
    assert result.outcome == OUTCOME_GATHERED, result.detail
    assert sum(record.cls == TAG_ASYMMETRIC for record in result.records) >= 15
    text = trace_lines(result.records)
    assert text == trace_lines_reference(result.records)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_LARGE_RUNS[case]


# SHA-256 of the trace of 40 uniform robots (``random.Random(40)``),
# synchronous, minimal stops, delta 0.01, run seed 1: 76 rounds, 58 of them
# in class M, where the location layer and the blocked test carry the cost
GOLDEN_M_HEAVY_RUN = "0901179789b4548e97a7bb6ce1909058b536013e5b4ca8a60fc796bf628f44e8"


def test_golden_trace_m_heavy():
    config = uniform_configuration(random.Random(40), 40)
    adv = AdversarySpec(activation="synchronous", stop_policy="minimal")
    result = run(config, adv, SimParams(delta=0.01, max_rounds=10_000, seed=1))
    assert result.outcome == OUTCOME_GATHERED, result.detail
    assert sum(record.cls == "M" for record in result.records) == 58
    text = trace_lines(result.records)
    assert text == trace_lines_reference(result.records)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_M_HEAVY_RUN


# --- snapshots at n = 160 -------------------------------------------------------------


def _paired_rays(rng: random.Random, n: int) -> Configuration:
    """Two robots on a heavy point and the rest in pairs on rays through it:
    the outer robot of every pair is blocked and steps aside."""
    elected = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
    pts = [elected] * 2
    rays = (n - 2) // 2
    for r in range(rays):
        theta = (r + 0.25 + 0.5 * rng.random()) * TAU / rays
        inner = rng.uniform(0.2, 0.6)
        pts.extend(on_ray(elected, theta, radius) for radius in (inner, inner + rng.uniform(0.2, 0.6)))
    return Configuration(pts)


def _huge_snapshots() -> list[Configuration]:
    rng = random.Random(160)
    n = 160
    return [
        _polygon(rng, n),
        _parked_quasi_regular(rng, n),
        _sidestep_multiplicity(rng, n),
        _paired_rays(rng, n),
    ]


GOLDEN_CLASSIFY_HUGE = "1a1b178668041125b8eeab384e64be3dd766f2671b5c3f8a0277da181ddb1a0d"


def test_golden_classify_huge():
    """``classify`` and every robot's ``compute`` at n = 160: the successor
    sweep and the rotation test around an unoccupied polygon center, an
    occupied center with parked robots, and two side-step sets."""
    lines = []
    shape = []
    for config in _huge_snapshots():
        cls = classify(config)
        lines.append(_class_line(cls))
        decisions = [compute(config, i, cls) for i in range(config.n)]
        shape.append((cls.tag, cls.qreg, sum(d.rule == RULE_M_SIDESTEP for d in decisions)))
        lines.extend(dumps_17g([d.rule, d.destination, d.elected]) for d in decisions)
    assert shape == [("QR", 160, 0), ("QR", 5, 0), ("M", None, 77), ("M", None, 79)]
    digest = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
    assert digest == GOLDEN_CLASSIFY_HUGE


# --- every size crossover, flipped to each side --------------------------------------

_HUGE = 10**9

# each side of every crossover that picks a code path by size; the window
# side also takes the hull at every size, so windows serve every diameter
_FORK_SIDES = [
    {"_ALL_PAIRS_UP_TO": 0},
    {"_ALL_PAIRS_UP_TO": _HUGE},
    {"_ALL_PAIRS_UP_TO": 0, "_OPPOSITE_FROM": 0},
    {"_OPPOSITE_FROM": _HUGE},
    {"_TREE_FROM": 0},
    {"_TREE_FROM": _HUGE},
]


def _decision_lines() -> list[str]:
    """``classify`` and every robot's ``compute`` on the n = 24, 40, 80 and
    160 snapshots and on a uniform class-A start of 160 robots, built afresh."""
    uniform = uniform_configuration(random.Random(161), 160)
    lines = []
    for config in _large_snapshots() + _huge_snapshots() + [uniform]:
        cls = classify(config)
        lines.append(_class_line(cls))
        if cls.tag != TAG_BIVALENT:
            decisions = [compute(config, i, cls) for i in range(config.n)]
            lines.extend(dumps_17g([d.rule, d.destination, d.elected]) for d in decisions)
    assert classify(uniform).tag == TAG_ASYMMETRIC
    return lines


def _short_run_trace() -> str:
    """The trace of the first ten rounds of a synchronous run of 24 robots,
    whose frame images take their stacks, farthest pair and locations from
    their base only where it measured every pair of its distinct points."""
    config = _jittered_grid(random.Random(34), 6, 4)
    adv = AdversarySpec(activation="synchronous", stop_policy="minimal")
    return trace_lines(run(config, adv, SimParams(delta=config.diameter / 100.0, max_rounds=10, seed=34)).records)


def test_crossovers_pick_paths_with_equal_results(monkeypatch):
    """Each path a size crossover picks gives the other path's doubles: with
    every crossover flipped to each side, the decisions on the large
    snapshots and the traces of the grid runs and of a short run stay the
    same."""
    expected = _decision_lines()
    trace = _short_run_trace()
    for side in _FORK_SIDES:
        with monkeypatch.context() as patch:
            for name, value in side.items():
                patch.setattr(configuration, name, value)
            assert _decision_lines() == expected, side
            assert _short_run_trace() == trace, side
            for case in sorted(GOLDEN_LARGE_RUNS):
                test_golden_trace_large(case)
