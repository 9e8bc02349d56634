"""Semi-synchronous execution engine with adversarial scheduling and crashes.

Each round: the adversary activates a set of live robots (subject to a
mechanical fairness bound), this round's crashes strike, every surviving
activated robot observes the full configuration through a fresh random local
coordinate frame, computes a destination, and is moved toward it, possibly
being stopped early but never before covering the movement floor ``delta``.
Arrivals snap exactly onto their destination so multiplicities stay exact.

A run is fully determined by (initial configuration, adversary spec,
parameters): replaying with the same seed reproduces the trace byte for
byte.  Protocol invariants (no bivalent configuration, the wait-free
condition, the per-class transition guarantees) are monitored every round
and break the run with an ``InvariantViolation`` outcome when they fail.
"""

from __future__ import annotations

import json
import logging
import math
import random
from dataclasses import dataclass
from typing import IO, Iterable

from . import configuration as cfg
from . import gathering, symmetry
from .configuration import ConfigClass, Configuration
from .errors import BivalentInitial, InvariantViolation, TooFewRobots
from .geometry import TAU, Point, _plain_sum, dist

log = logging.getLogger("gathersim")

ACTIVATION_POLICIES = ("synchronous", "random", "round_robin", "adversarial_greedy")
STOP_POLICIES = ("full_move", "minimal", "random_fraction")

OUTCOME_GATHERED = "Gathered"
OUTCOME_MAX_ROUNDS = "MaxRoundsExceeded"
OUTCOME_VIOLATION = "InvariantViolation"

# Transition checks pin the Weber point / elected location across rounds;
# numeric Weber points are trusted to this fraction of the diameter.
_WEBER_MATCH_REL = 1e-6
# A robot's local-frame decision must map back within this fraction of the
# diameter, or within the coordinates' resolution when that is larger.
_FRAME_MATCH_REL = 1e-9


@dataclass
class SimParams:
    delta: float
    max_rounds: int = 100_000
    fairness_bound: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.fairness_bound < 1:
            raise ValueError("fairness_bound must be at least 1")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")


@dataclass
class AdversarySpec:
    activation: str = "synchronous"
    activation_prob: float = 0.5
    stop_policy: str = "full_move"
    crash_schedule: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.activation not in ACTIVATION_POLICIES:
            raise ValueError(f"unknown activation policy {self.activation!r}")
        if self.stop_policy not in STOP_POLICIES:
            raise ValueError(f"unknown stop policy {self.stop_policy!r}")
        self.crash_schedule = tuple((int(r), int(i)) for r, i in self.crash_schedule)


@dataclass
class SimState:
    round: int
    config: Configuration
    crashed: list[bool]
    since_activation: list[int]


@dataclass
class LocalFrame:
    """Orientation-preserving similarity: a robot's private coordinate system."""

    rotation: float
    scale: float
    translation: Point

    @classmethod
    def random(cls, rng: random.Random, scale_ref: float) -> "LocalFrame":
        span = 2.0 * scale_ref
        return cls(
            rotation=rng.uniform(0.0, TAU),
            scale=rng.uniform(0.5, 2.0),
            translation=Point(rng.uniform(-span, span), rng.uniform(-span, span)),
        )

    def apply_point(self, p: Point) -> Point:
        ct = math.cos(self.rotation)
        st = math.sin(self.rotation)
        return Point(
            self.scale * (p.x * ct - p.y * st) + self.translation.x,
            self.scale * (p.x * st + p.y * ct) + self.translation.y,
        )

    def invert_point(self, q: Point) -> Point:
        x = (q.x - self.translation.x) / self.scale
        y = (q.y - self.translation.y) / self.scale
        ct = math.cos(self.rotation)
        st = math.sin(self.rotation)
        return Point(x * ct + y * st, -x * st + y * ct)

    def apply_config(self, config: Configuration) -> Configuration:
        # apply_point's arithmetic, with the rotation's cos and sin taken
        # once; plain float pairs, which Configuration makes Points of
        ct = math.cos(self.rotation)
        st = math.sin(self.rotation)
        s = self.scale
        tx, ty = self.translation
        return Configuration(
            [(s * (x * ct - y * st) + tx, s * (x * st + y * ct) + ty) for x, y in config.points], config.tol
        )


@dataclass
class TraceRecord:
    round: int
    cls: str
    positions: list[Point]
    crashed: list[bool]
    activated: list[int]
    decisions: list[tuple[int, str, Point]]
    stops: list[Point]
    gathered: bool

    @classmethod
    def from_obj(cls, obj: dict) -> "TraceRecord":
        return cls(
            round=obj["round"],
            cls=obj["class"],
            positions=[Point(float(x), float(y)) for x, y in obj["positions"]],
            crashed=list(obj["crashed"]),
            activated=list(obj["activated"]),
            decisions=[
                (d["robot"], d["rule"], Point(float(d["dest"][0]), float(d["dest"][1])))
                for d in obj["decisions"]
            ],
            stops=[Point(float(x), float(y)) for x, y in obj["stops"]],
            gathered=obj["gathered"],
        )


@dataclass
class RunResult:
    outcome: str
    rounds: int
    records: list[TraceRecord]
    detail: str | None
    crashes: int
    seed: int
    transition_checks: int

    def summary(self) -> dict:
        return {
            "outcome": self.outcome,
            "rounds": self.rounds,
            "crashes": self.crashes,
            "seed": self.seed,
        }


# --- serialization ---------------------------------------------------------------
#
# Floats are written with 17 significant digits so a parsed trace reproduces
# the exact doubles of the run that wrote it.


def dumps_17g(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, float):
        return format(obj, ".17g")
    if isinstance(obj, int):
        return repr(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{dumps_17g(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps_17g(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _xy_list(points: Iterable[Point], texts: dict[int, str], previous: dict[int, str]) -> str:
    """The points' ``[x,y]`` texts, looked up by each point's ``id`` in
    texts, the current record's, then in the previous record's, and
    formatted only when neither has it; texts keeps every one used."""
    out = []
    for p in points:
        key = id(p)
        text = texts.get(key)
        if text is None:
            text = previous.get(key)
            if text is None:
                x, y = p
                text = f"[{x:.17g},{y:.17g}]"
            texts[key] = text
        out.append(text)
    return ",".join(out)


def _trace_line(rec: TraceRecord, texts: dict[int, str], previous: dict[int, str]) -> str:
    """The line ``dumps_17g`` wrote for a dict of the record's fields."""
    decisions = ",".join(
        f'{{"robot":{robot!r},"rule":{json.dumps(rule)},"dest":{_xy_list((dest,), texts, previous)}}}'
        for robot, rule, dest in rec.decisions
    )
    return (
        f'{{"round":{rec.round!r},"class":{json.dumps(rec.cls)},'
        f'"positions":[{_xy_list(rec.positions, texts, previous)}],'
        f'"crashed":[{",".join("true" if c else "false" for c in rec.crashed)}],'
        f'"activated":[{",".join(map(repr, rec.activated))}],"decisions":[{decisions}],'
        f'"stops":[{_xy_list(rec.stops, texts, previous)}],"gathered":{"true" if rec.gathered else "false"}}}\n'
    )


def trace_lines(records: Iterable[TraceRecord]) -> str:
    """The records as JSONL text, one ``dumps_17g`` line each.

    A round that moves no robot keeps its configuration's ``Point``
    objects, a robot that stays stops on its own position and one that
    moves the whole way stops on its destination, so a record shares most
    of its points with itself and with the record before: each point
    object's text is kept from its first use to the end of the next
    record.  The cache is keyed by identity, not equality, as
    ``Point(0.0, y) == Point(-0.0, y)`` yet the two format differently;
    the records are held for the whole call, so no id is reused by another
    point meanwhile.
    """
    records = list(records)
    lines = []
    previous: dict[int, str] = {}
    for rec in records:
        texts: dict[int, str] = {}
        lines.append(_trace_line(rec, texts, previous))
        previous = texts
    return "".join(lines)


def read_trace(stream: IO[str]) -> list[TraceRecord]:
    return [TraceRecord.from_obj(json.loads(line)) for line in stream if line.strip()]


# --- scheduling ------------------------------------------------------------------


def _forced_robots(state: SimState, bound: int) -> set[int]:
    return {
        i
        for i in range(state.config.n)
        if not state.crashed[i] and state.since_activation[i] + 1 >= bound
    }


def _select_activation(
    state: SimState,
    adv: AdversarySpec,
    params: SimParams,
    rng: random.Random,
    decisions: dict[int, gathering.ComputeDecision],
) -> set[int]:
    live = [i for i in range(state.config.n) if not state.crashed[i]]
    forced = _forced_robots(state, params.fairness_bound)
    if adv.activation == "synchronous":
        return set(live)
    if adv.activation == "random":
        chosen = {i for i in live if rng.random() < adv.activation_prob}
        return chosen | forced
    if adv.activation == "round_robin":
        n = state.config.n
        idx = state.round % n
        for _ in range(n):
            if not state.crashed[idx]:
                break
            idx = (idx + 1) % n
        return {idx} | forced
    return _greedy_activation(state, params, forced, live, decisions)


def _greedy_activation(
    state: SimState,
    params: SimParams,
    forced: set[int],
    live: list[int],
    decisions: dict[int, gathering.ComputeDecision],
) -> set[int]:
    """One-step lookahead picking the subset that helps gathering least.

    Candidates are the forced set alone plus the forced set extended by one
    live robot; the lookahead assumes minimal-delta stops.  Progress is
    measured as (highest live multiplicity, -total live spread), minimized.

    Each live robot is moved once.  One table of the live robots' distances
    after the forced moves serves every candidate: the extra robot replaces
    a row and a column (``dist`` is symmetric bit for bit).  The spread adds
    the upper triangle row by row from 0.0, as the pairwise sum did, so
    every double and every tie decided by the sorted candidate is kept.
    """
    points = state.config.points
    slack = state.config.merge_slack
    moved = {i: _move_toward(points[i], decisions[i].destination, params.delta, "minimal", None) for i in live}
    base = [moved[i] if i in forced else points[i] for i in live]
    m = len(base)
    table = [[dist(p, q) for q in base] for p in base]
    counts = [sum(d <= slack for d in row) for row in table]
    upper = [d for a, row in enumerate(table) for d in row[a + 1:]]
    offset = [a * m - a * (a + 1) // 2 for a in range(m)]  # row a's start in upper
    best = ((max(counts), -_plain_sum(upper)), tuple(sorted(forced)))
    for k, i in enumerate(live):
        if i in forced:
            continue
        row = [dist(moved[i], q) for q in base]
        row[k] = 0.0
        cand_counts = [c - (table[a][k] <= slack) + (row[a] <= slack) for a, c in enumerate(counts)]
        cand_counts[k] = sum(d <= slack for d in row)
        pairs = upper.copy()
        for a in range(k):
            pairs[offset[a] + k - a - 1] = row[a]
        pairs[offset[k]:offset[k] + m - k - 1] = row[k + 1:]
        key = ((max(cand_counts), -_plain_sum(pairs)), tuple(sorted(forced | {i})))
        if key < best:
            best = key
    return set(best[1])


def _move_toward(
    pos: Point, dest: Point, delta: float, stop_policy: str, rng: random.Random | None
) -> Point:
    d = dist(pos, dest)
    if d <= delta or stop_policy == "full_move":
        return dest
    if stop_policy == "minimal":
        frac = delta / d
    else:
        assert rng is not None
        frac = rng.uniform(delta / d, 1.0)
    return Point(pos.x + frac * (dest.x - pos.x), pos.y + frac * (dest.y - pos.y))


# --- the round -------------------------------------------------------------------


def _decide(config: Configuration, cls: ConfigClass) -> list[gathering.ComputeDecision]:
    """Each location's decision, computed for its lowest robot: co-located
    robots always receive identical decisions."""
    return [gathering.compute(config, loc.indices[0], cls) for loc in config.locations]


def step(
    state: SimState,
    adv: AdversarySpec,
    params: SimParams,
    rng: random.Random,
    cls: ConfigClass | None = None,
    decided: list[gathering.ComputeDecision] | None = None,
) -> tuple[SimState, TraceRecord]:
    """Execute one round; returns (state, record).

    ``cls`` and ``decided`` may carry the configuration's class and its
    per-location decisions (``_decide``), which ``run`` has already taken.
    A round that moves no robot (no actor, or every actor stays) returns
    the input's own ``Configuration``, which ``run`` neither classifies nor
    decides again.  Stops are tested by identity: ``==`` takes -0.0 for 0.0.
    ``check_transition`` reads what moved from the round's two
    configurations.
    """
    config = state.config
    if cls is None:
        cls = cfg.classify(config)
    if cls.tag == cfg.TAG_BIVALENT:
        raise InvariantViolation(f"round {state.round}: bivalent configuration")
    if decided is None:
        decided = _decide(config, cls)

    decisions: dict[int, gathering.ComputeDecision] = {}
    for loc, decision in zip(config.locations, decided):
        for i in loc.indices:
            if not state.crashed[i]:
                decisions[i] = decision

    selected = _select_activation(state, adv, params, rng, decisions)
    newly_crashed = {i for rnd, i in adv.crash_schedule if rnd == state.round}
    crashed = [c or (i in newly_crashed) for i, c in enumerate(state.crashed)]
    actors = sorted(i for i in selected if not crashed[i])

    scale_ref = max(config.diameter, 1e-9)
    frame_tol = max(_FRAME_MATCH_REL * config.diameter, config.resolution)
    new_points = list(config.points)
    recorded = []
    stops = []
    for i in actors:
        frame = LocalFrame.random(rng, scale_ref)
        local_decision = gathering.compute(frame.apply_config(config), i)
        mapped = frame.invert_point(local_decision.destination)
        decision = decisions[i]
        if local_decision.rule != decision.rule or dist(mapped, decision.destination) > frame_tol:
            raise InvariantViolation(
                f"round {state.round}: robot {i} frame-dependent decision "
                f"({local_decision.rule} vs {decision.rule}, offset "
                f"{dist(mapped, decision.destination):.3e})"
            )
        pos = config.points[i]
        if decision.rule == gathering.RULE_STAY:
            stop = pos
        else:
            stop = _move_toward(pos, decision.destination, params.delta, adv.stop_policy, rng)
            if dist(stop, decision.destination) <= config.merge_slack:
                stop = decision.destination
        new_points[i] = stop
        recorded.append((i, decision.rule, decision.destination))
        stops.append(stop)

    since = [
        0 if i in selected and not crashed[i] else state.since_activation[i] + 1
        for i in range(config.n)
    ]
    record = TraceRecord(
        round=state.round,
        cls=cls.tag,
        positions=list(config.points),
        crashed=list(crashed),
        activated=actors,
        decisions=recorded,
        stops=stops,
        gathered=False,
    )
    kept = all(stop is config.points[i] for i, stop in zip(actors, stops))
    new_state = SimState(state.round + 1, config if kept else Configuration(new_points, config.tol), crashed, since)
    return new_state, record


# --- convergence guarantees as executable checks ------------------------------------


def check_transition(
    prev: ConfigClass, nxt: ConfigClass, prev_config: Configuration, next_config: Configuration, delta: float
) -> str | None:
    """Validate one round transition against the per-class convergence claims.

    ``prev`` and ``nxt`` are the classes of the round's configurations
    before and after, and ``delta`` the movement floor.  The check reads
    only the two configurations: a robot moved when its two points differ
    (``==`` per float, so -0.0 is 0.0), since a round changes only its
    actors' points.  Returns a violation description, or None when the
    transition is allowed.
    """
    wtol = max(_WEBER_MATCH_REL * prev_config.diameter, 1e-12)

    if nxt.tag == cfg.TAG_BIVALENT:
        return f"{prev.tag} -> B (bivalent reached)"

    if prev.tag == cfg.TAG_MULTIPLE:
        if nxt.tag != cfg.TAG_MULTIPLE:
            return f"M -> {nxt.tag}"
        assert prev.elected is not None and nxt.elected is not None
        if dist(prev.elected, nxt.elected) > wtol:
            return "M -> M with a different elected point"
        return None

    if prev.tag == cfg.TAG_L1W:
        if nxt.tag not in (cfg.TAG_MULTIPLE, cfg.TAG_L1W):
            return f"L1W -> {nxt.tag}"
        assert prev.weber is not None
        return _weber_preserved(prev.weber, nxt, next_config, wtol, "L1W")

    if prev.tag == cfg.TAG_QREGULAR:
        if nxt.tag not in (cfg.TAG_MULTIPLE, cfg.TAG_L1W, cfg.TAG_QREGULAR):
            return f"QR -> {nxt.tag}"
        assert prev.weber is not None
        if nxt.tag == cfg.TAG_QREGULAR:
            assert nxt.weber is not None
            if dist(prev.weber, nxt.weber) > wtol:
                return "QR -> QR with a moved center"
            return None
        return _weber_preserved(prev.weber, nxt, next_config, wtol, "QR")

    if prev.tag == cfg.TAG_ASYMMETRIC:
        if nxt.tag == cfg.TAG_L2W:
            return "A -> L2W"
        if nxt.tag == cfg.TAG_ASYMMETRIC and prev_config.points != next_config.points:
            p_prev = gathering.potential(prev_config, prev)
            p_next = gathering.potential(next_config, nxt)
            if p_next.mult > p_prev.mult:
                return None
            margin = 0.9 * delta
            if p_next.mult == p_prev.mult and 1.0 / p_next.inv_sum <= 1.0 / p_prev.inv_sum - margin:
                return None
            return "A -> A without potential progress"
        return None

    if prev.tag == cfg.TAG_L2W:
        if nxt.tag != cfg.TAG_L2W:
            return None
        assert prev.endpoints is not None
        lo, hi = prev.endpoints
        slack = prev_config.merge_slack
        for p, q in zip(prev_config.points, next_config.points):
            if p != q and (dist(p, lo) <= slack or dist(p, hi) <= slack):
                return "L2W -> L2W although an endpoint robot moved"
        return None

    return f"transition from unexpected class {prev.tag}"


def _weber_preserved(
    prev_weber: Point, nxt: ConfigClass, next_config: Configuration, wtol: float, label: str
) -> str | None:
    if nxt.tag == cfg.TAG_L1W:
        assert nxt.weber is not None
        if dist(prev_weber, nxt.weber) > wtol:
            return f"{label} -> L1W with a moved Weber point"
        return None
    if next_config.is_linear:
        lo, hi = cfg.median_interval(next_config)
        if dist(lo, prev_weber) > wtol or dist(hi, prev_weber) > wtol:
            return f"{label} -> M with a moved or split median"
        return None
    if dist(symmetry.weber_numeric(next_config), prev_weber) > wtol:
        return f"{label} -> M with a moved Weber point"
    return None


# --- the full run ------------------------------------------------------------------


def _validate_crashes(n: int, adv: AdversarySpec) -> int:
    robots = set()
    for rnd, i in adv.crash_schedule:
        if not (0 <= i < n):
            raise ValueError(f"crash schedule names robot {i} outside 0..{n - 1}")
        if rnd < 0:
            raise ValueError("crash rounds must be nonnegative")
        robots.add(i)
    if len(robots) >= n:
        raise ValueError("at least one robot must never crash")
    return len(robots)


def run(initial: Configuration, adv: AdversarySpec, params: SimParams) -> RunResult:
    """Iterate rounds until gathered, the round limit, or a broken invariant."""
    n = initial.n
    if n < 3:
        raise TooFewRobots("gathering runs need at least three robots")
    crashes = _validate_crashes(n, adv)
    cls = cfg.classify(initial)
    if cls.tag == cfg.TAG_BIVALENT:
        raise BivalentInitial("gathering is impossible from a bivalent configuration")

    rng = random.Random(params.seed)
    state = SimState(0, initial, [False] * n, [0] * n)
    records: list[TraceRecord] = []
    # (class, configuration) of the last step
    prev: tuple[ConfigClass, Configuration] | None = None
    decided: list[gathering.ComputeDecision] | None = None
    checks = 0

    while True:
        config = state.config
        try:
            if cls.tag == cfg.TAG_BIVALENT:
                raise InvariantViolation(f"round {state.round}: bivalent configuration reached")
            if prev is not None:
                prev_cls, prev_config = prev
                violation = check_transition(prev_cls, cls, prev_config, config, params.delta)
                checks += 1
                if violation is not None:
                    raise InvariantViolation(f"round {state.round}: {violation}")
            if decided is None:
                decided = _decide(config, cls)
            moving = [loc.location for loc, d in zip(config.locations, decided) if d.rule != gathering.RULE_STAY]
            live = [not c for c in state.crashed]
            gathered = cfg.is_gathered(config, live, moving)
            if records:
                records[-1].gathered = gathered
            if not gathered:
                stationary = [
                    loc.location
                    for loc in config.locations
                    if all(dist(loc.location, m) > config.merge_slack for m in moving)
                ]
                if len(stationary) > 1:
                    raise InvariantViolation(
                        f"round {state.round}: {len(stationary)} stationary locations (wait-freedom)"
                    )
            if gathered:
                records.append(_terminal_record(state, cls, True))
                return RunResult(OUTCOME_GATHERED, state.round, records, None, crashes, params.seed, checks)
            if state.round >= params.max_rounds:
                records.append(_terminal_record(state, cls, False))
                return RunResult(OUTCOME_MAX_ROUNDS, state.round, records, None, crashes, params.seed, checks)

            state, record = step(state, adv, params, rng, cls, decided)
            records.append(record)
            prev = (cls, config)
            log.debug("round %d: class %s, %d activated", record.round, record.cls, len(record.activated))
        except InvariantViolation as exc:
            records.append(_terminal_record(state, cls, False))
            return RunResult(OUTCOME_VIOLATION, state.round, records, str(exc), crashes, params.seed, checks)
        if state.config is not config:
            cls = cfg.classify(state.config)
            decided = None


def _terminal_record(state: SimState, cls: ConfigClass, gathered: bool) -> TraceRecord:
    return TraceRecord(
        round=state.round,
        cls=cls.tag,
        positions=list(state.config.points),
        crashed=list(state.crashed),
        activated=[],
        decisions=[],
        stops=[],
        gathered=gathered,
    )
