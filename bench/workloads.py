"""Seeded inputs and closed-loop items of the three benchmark workloads.

Inputs are built here from the workload seed with the benchmark's own
generators, so the program only ever receives plain point lists and run
parameters.  Every item is processed through the public API, looked up on
the package at call time so that a traced run sees the wrapped functions.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field

TAU = 2.0 * math.pi

# Ground truth is compared with this share of the configuration diameter;
# classification itself works at 1e-9, so this only absorbs the numeric
# error of a converged Weber point.
MATCH_REL = 1e-6


# --- geometry the generators need ---------------------------------------------------


def diameter(points) -> float:
    return max(math.dist(p, q) for p, q in itertools.combinations(points, 2))


def _similar(rng: random.Random, points):
    """A random rotation, scale and translation of the points."""
    theta = rng.uniform(0.0, TAU)
    scale = rng.uniform(0.5, 2.0)
    tx, ty = rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)
    ct, st = math.cos(theta), math.sin(theta)
    return [(scale * (x * ct - y * st) + tx, scale * (x * st + y * ct) + ty) for x, y in points]


def _on_line(rng: random.Random, values):
    origin = (rng.uniform(-1, 1), rng.uniform(-1, 1))
    theta = rng.uniform(0, TAU)
    ux, uy = math.cos(theta), math.sin(theta)
    return [(origin[0] + t * ux, origin[1] + t * uy) for t in values]


def _rotate_cw(p, c, theta):
    dx, dy = p[0] - c[0], p[1] - c[1]
    ct, st = math.cos(theta), math.sin(theta)
    return (c[0] + dx * ct + dy * st, c[1] - dx * st + dy * ct)


def regular_polygon(rng: random.Random, n: int):
    center = (rng.uniform(-1, 1), rng.uniform(-1, 1))
    radius = rng.uniform(0.5, 2.0)
    phase = rng.uniform(0, TAU)
    pts = [
        (center[0] + radius * math.cos(phase + k * TAU / n), center[1] + radius * math.sin(phase + k * TAU / n))
        for k in range(n)
    ]
    return pts, center


def uniform_points(rng: random.Random, n: int):
    return [(rng.random(), rng.random()) for _ in range(n)]


def stratified_points(rng: random.Random, cols: int, rows: int):
    """One uniform point in the central 20% of each cell of a cols x rows grid.

    Plain uniform starts put a random robot next to the elected safe point,
    so the length of the class-A phase (the expensive one) varies several
    fold between seeds; one point per cell near the cell's center keeps it
    nearly fixed.
    """
    return [
        ((i + 0.4 + 0.2 * rng.random()) / cols, (j + 0.4 + 0.2 * rng.random()) / rows)
        for i in range(cols)
        for j in range(rows)
    ]


# --- classify-snapshots ----------------------------------------------------------


@dataclass
class Snapshot:
    points: list
    n: int
    tag: str
    truth: dict = field(default_factory=dict)


def _snap_bivalent(rng, n):
    a = (rng.random(), rng.random())
    b = (a[0] + rng.uniform(0.5, 1.5), a[1] + rng.uniform(-0.5, 0.5))
    return Snapshot([a] * (n // 2) + [b] * (n // 2), n, "B")


def _snap_multiple(rng, n):
    """Two robots on a heavy point, the rest in pairs on rays through it.

    The outer robot of every pair is blocked by the inner one, so it takes
    the side step; the inner one moves straight to the heavy point.
    """
    e = (rng.random(), rng.random())
    others = n - 2
    rays = (others + 1) // 2
    pts = [e, e]
    rules = ["Stay", "Stay"]
    for r in range(rays):
        theta = (r + 0.25 + 0.5 * rng.random()) * TAU / rays
        ux, uy = math.cos(theta), math.sin(theta)
        inner = rng.uniform(0.2, 0.6)
        radii = [inner, inner + rng.uniform(0.2, 0.6)][: min(2, others - 2 * r)]
        for k, radius in enumerate(radii):
            pts.append((e[0] + radius * ux, e[1] + radius * uy))
            rules.append("M_sidestep" if k else "M_direct")
    return Snapshot(pts, n, "M", {"elected": e, "rules": rules})


def _snap_l1w(rng, n):
    """Even n: a pair at the median, a pair at the lowest value, the rest distinct."""
    lowest = rng.uniform(-1.0, -0.5)
    below = [lowest, lowest] + [rng.uniform(lowest + 0.01, -0.01) for _ in range(n // 2 - 3)]
    above = [rng.uniform(0.01, 1.0) for _ in range(n // 2 - 1)]
    pts = _on_line(rng, below + [0.0, 0.0] + above)
    return Snapshot(pts, n, "L1W", {"weber": pts[len(below)]})


def _snap_l2w(rng, n):
    values = sorted(rng.uniform(-1, 1) for _ in range(n))
    pts = _on_line(rng, values)
    return Snapshot(pts, n, "L2W", {"endpoints": (pts[0], pts[-1])})


def _snap_qregular(rng, n):
    pts, center = regular_polygon(rng, n)
    return Snapshot(pts, n, "QR", {"center": center, "qreg": n})


def _snap_asymmetric(rng, n):
    return Snapshot(_similar(rng, uniform_points(rng, n)), n, "A")


SNAPSHOT_BUILDERS = (_snap_bivalent, _snap_multiple, _snap_l1w, _snap_l2w, _snap_qregular, _snap_asymmetric)
# snapshots per class at each robot count; n=160 is where the complexity shows
SNAPSHOT_SIZES = {10: 4, 40: 2, 160: 1}


def snapshot_corpus(seed: int) -> list[Snapshot]:
    rng = random.Random(seed)
    return [build(rng, n) for n, per_class in SNAPSHOT_SIZES.items() for _ in range(per_class) for build in SNAPSHOT_BUILDERS]


def decide_snapshot(api, snap: Snapshot):
    """The ``gathersim classify --decide`` path on a fresh configuration."""
    config = api.Configuration(snap.points)
    cls = api.classify(config)
    decisions = [] if cls.tag == "B" else [api.compute(config, i, cls) for i in range(config.n)]
    return config, cls, decisions


def check_snapshot(snap: Snapshot, config, cls, decisions) -> str | None:
    """Compare one decided snapshot with the ground truth of its construction."""
    if cls.tag != snap.tag:
        return f"{snap.tag} snapshot (n={snap.n}) classified {cls.tag}"
    tol = MATCH_REL * config.diameter
    truth = snap.truth
    rules = [d.rule for d in decisions]
    if snap.tag == "M":
        if math.dist(cls.elected, truth["elected"]) > tol:
            return "M elected the wrong point"
        if rules != truth["rules"]:
            return f"M rules {Counter(rules)} != {Counter(truth['rules'])}"
    elif snap.tag == "L1W":
        if math.dist(cls.weber, truth["weber"]) > tol:
            return "L1W median moved"
        want = ["Stay" if math.dist(p, truth["weber"]) <= tol else "WeberMove" for p in snap.points]
        if rules != want:
            return "L1W rules differ"
    elif snap.tag == "L2W":
        got = sorted(cls.endpoints)
        if any(math.dist(g, w) > tol for g, w in zip(got, sorted(truth["endpoints"]))):
            return "L2W endpoints differ"
        ends = truth["endpoints"]
        for p, rule in zip(snap.points, rules):
            want = "L2W_rotate" if min(math.dist(p, e) for e in ends) <= tol else "L2W_center"
            if rule != want and not (rule == "Stay" and math.dist(p, cls.midpoint) <= tol):
                return f"L2W robot at {p} got {rule}"
    elif snap.tag == "QR":
        if cls.qreg != truth["qreg"] or math.dist(cls.weber, truth["center"]) > tol:
            return f"QR order {cls.qreg} or center off (n={snap.n})"
        if set(rules) != {"WeberMove"}:
            return "QR robots not all moving to the center"
    elif snap.tag == "A":
        if not any(math.dist(cls.elected, p) <= tol for p in snap.points):
            return "A elected an unoccupied point"
        want = ["Stay" if math.dist(p, cls.elected) <= tol else "A_elect" for p in snap.points]
        if rules != want:
            return "A rules differ"
    return None


def snapshot_digest(cls, decisions) -> bytes:
    parts = [cls.tag, repr(cls.qreg), repr(cls.elected), repr(cls.weber), repr(cls.endpoints)]
    parts += [f"{d.rule}:{d.destination.x!r},{d.destination.y!r}" for d in decisions]
    return hashlib.sha256("|".join(parts).encode()).digest()


# --- simulator workloads ------------------------------------------------------------


@dataclass
class RunInput:
    points: list
    activation: str
    stop: str
    crash_schedule: tuple
    delta: float
    seed: int
    label: str
    max_rounds: int = 100_000


def simulate(api, item: RunInput):
    """One ``run()`` plus in-memory JSONL serialisation of its trace."""
    config = api.Configuration(item.points)
    adv = api.AdversarySpec(
        activation=item.activation,
        activation_prob=0.5,
        stop_policy=item.stop,
        crash_schedule=item.crash_schedule,
    )
    params = api.SimParams(delta=item.delta, max_rounds=item.max_rounds, seed=item.seed)
    result = api.run(config, adv, params)
    return result, api.simulator.trace_lines(result.records)


def check_run(item: RunInput, result) -> str | None:
    if result.outcome != "Gathered" or result.detail is not None:
        return f"{item.label}: {result.outcome} {result.detail or ''}".strip()
    return None


# sizes of the stratified starts, and of the regular polygon, in sync-large;
# two starts of each size, because a single 24-robot run alone moved the
# pass's cost by about 10% from seed to seed
SYNC_GRIDS = ((4, 4), (5, 4), (6, 4)) * 2
SYNC_POLYGON = 12


def sync_large_runs(seed: int) -> list[RunInput]:
    """Synchronous, minimal-stop runs: class A then M, and a long QR phase."""
    rng = random.Random(seed)
    starts = [(_similar(rng, stratified_points(rng, c, r)), f"grid{c}x{r}") for c, r in SYNC_GRIDS]
    starts.append((_similar(rng, regular_polygon(rng, SYNC_POLYGON)[0]), f"polygon{SYNC_POLYGON}"))
    return [
        RunInput(pts, "synchronous", "minimal", (), diameter(pts) / 100.0, rng.randrange(2**31), label)
        for pts, label in starts
    ]


SWEEP_ADVERSARIES = ("synchronous", "random", "round_robin", "adversarial_greedy")
SWEEP_STOPS = ("full_move", "minimal")
SWEEP_CELLS = list(itertools.product(SWEEP_ADVERSARIES, SWEEP_STOPS, range(4)))
# five runs per (cell, n) for n = 3..8: the time goes mostly to a few
# uniform starts under the greedy adversary, and with two runs per (cell, n)
# the pass's rounds/s still moved by 10% from seed to seed
SWEEP_RUNS = len(SWEEP_CELLS) * 6 * 5


def _bivalent_or_gathered(points) -> bool:
    counts = Counter(points)
    return len(counts) < 2 or (len(counts) == 2 and len(set(counts.values())) == 1)


# The acceptance sweep draws 60% uniform, 20% collinear and 20% symmetric
# starts at random; here every five consecutive runs take exactly that mix,
# so the share of each kind, and with it the pass's cost, does not vary
# from seed to seed.
SWEEP_KINDS = ("uniform", "uniform", "collinear", "uniform", "symmetric")


def _sweep_start(rng: random.Random, n: int, kind: str):
    """The acceptance sweep's start rule for one kind of start."""
    if kind == "uniform":
        return uniform_points(rng, n)
    if kind == "collinear":
        while True:
            values = [rng.uniform(-1, 1) for _ in range(n)]
            if rng.random() < 0.4:
                spots = [rng.uniform(-1, 1) for _ in range(max(2, n // 2))]
                values = [rng.choice(spots) for _ in range(n)]
            pts = _on_line(rng, values)
            if not _bivalent_or_gathered(pts):
                return pts
    while True:
        k = rng.choice([2, 3, 4])
        with_center = rng.random() < 0.3
        center = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        base = _rotate_cw((center[0] + rng.uniform(0.3, 1.5), center[1]), center, rng.uniform(0, TAU))
        mult = rng.randint(1, 2)
        pts = [v for j in range(k) for v in [_rotate_cw(base, center, j * TAU / k)] * mult]
        if with_center:
            pts.append(center)
        if 3 <= len(pts) <= 8 and not _bivalent_or_gathered(pts):
            return pts


def sweep_small_runs(seed: int) -> list[RunInput]:
    """All adversaries x stop policies x crash budgets {0, 1, n-2, n-1}, n = 3..8."""
    rng = random.Random(seed)
    runs = []
    for i in range(SWEEP_RUNS):
        activation, stop, crash_slot = SWEEP_CELLS[i % len(SWEEP_CELLS)]
        pts = _sweep_start(rng, 3 + (i // len(SWEEP_CELLS)) % 6, SWEEP_KINDS[i % len(SWEEP_KINDS)])
        n = len(pts)
        crashes = min([0, 1, max(n - 2, 0), n - 1][crash_slot], n - 1)
        schedule = tuple((rng.randrange(0, 25), robot) for robot in rng.sample(range(n), crashes))
        delta = rng.uniform(0.05, 0.12) * diameter(pts)
        label = f"{activation}/{stop}"
        runs.append(RunInput(pts, activation, stop, schedule, delta, rng.randrange(2**31), label, 10_000))
    return runs
