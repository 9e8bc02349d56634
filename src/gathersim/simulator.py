"""Semi-synchronous execution engine: the adversary chooses, ``_apply`` executes.

Each round the adversary (``_choose``) makes every choice a robot does not:
which live robots it activates (subject to a mechanical fairness bound),
which crash, each actor's fresh random local frame, and where each move
stops, never before it covers the movement floor ``delta``.  ``_apply``
then executes the choice and draws nothing: every actor observes the
configuration through its frame and computes its destination, which must
map back to its own (the frame monitor), and arrivals snap exactly onto
their destination so multiplicities stay exact.

A run is fully determined by (initial configuration, adversary spec,
parameters): replaying with the same seed reproduces the trace byte for
byte.  Protocol invariants (no bivalent configuration, the wait-free
condition, the per-class transition guarantees) are checked once each per
round, and break the run with an ``InvariantViolation`` outcome when they
fail.
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
from .configuration import Configuration
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
# The classes each class may be followed by in the next round; B follows none.
_MAY_FOLLOW = {
    cfg.TAG_MULTIPLE: (cfg.TAG_MULTIPLE,),
    cfg.TAG_L1W: (cfg.TAG_MULTIPLE, cfg.TAG_L1W),
    cfg.TAG_QREGULAR: (cfg.TAG_MULTIPLE, cfg.TAG_L1W, cfg.TAG_QREGULAR),
    cfg.TAG_ASYMMETRIC: (cfg.TAG_MULTIPLE, cfg.TAG_L1W, cfg.TAG_QREGULAR, cfg.TAG_ASYMMETRIC),
    cfg.TAG_L2W: cfg.ALL_TAGS,
}


@dataclass
class SimParams:
    delta: float
    max_rounds: int = 100_000
    fairness_bound: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < math.inf:
            raise ValueError("delta must be finite and positive")
        for name in ("max_rounds", "fairness_bound"):  # NaN passes "< 1"; bools are refused as in crash entries
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be an int of at least 1, not {value!r}")


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
        if not 0.0 <= self.activation_prob <= 1.0:
            raise ValueError("activation_prob must lie in [0, 1]")
        self.crash_schedule = tuple(map(tuple, self.crash_schedule))
        for entry in self.crash_schedule:
            if len(entry) != 2 or not all(type(v) is int for v in entry):
                raise ValueError(f"crash schedule entry {entry!r} is not a pair of ints")


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

    def invert_point(self, q: Point) -> Point:
        x = (q.x - self.translation.x) / self.scale
        y = (q.y - self.translation.y) / self.scale
        ct = math.cos(self.rotation)
        st = math.sin(self.rotation)
        return Point(x * ct + y * st, -x * st + y * ct)

    def apply_config(self, config: Configuration) -> Configuration:
        # every robot rotated, scaled and translated, with the rotation's cos
        # and sin taken once; plain float pairs, which Configuration makes
        # Points of
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


# --- the adversary's choices ------------------------------------------------------


@dataclass
class RoundChoice:
    """A round as the adversary chose it: crash flags after this round's crashes,
    the running activated robots (ascending), and each one's frame and stop."""

    crashed: list[bool]
    actors: list[int]
    frames: list[LocalFrame]
    stops: list[Point]


def _choose(
    state: SimState,
    adv: AdversarySpec,
    params: SimParams,
    rng: random.Random,
    decisions: list[gathering.ComputeDecision],
) -> RoundChoice:
    """Every draw of a round, in this order: the activation (a live robot
    idle for ``fairness_bound - 1`` rounds is forced in), then, after this
    round's crashes, each actor's frame and stop, actor by actor.  Frames
    are translated by up to twice the diameter, so frame images keep the
    configuration's shape at every scale."""
    config, n = state.config, state.config.n
    live = [i for i in range(n) if not state.crashed[i]]
    forced = {i for i in live if state.since_activation[i] + 1 >= params.fairness_bound}
    if adv.activation == "synchronous":
        selected = set(live)
    elif adv.activation == "random":
        selected = {i for i in live if rng.random() < adv.activation_prob} | forced
    elif adv.activation == "round_robin":
        turn = (j % n for j in range(state.round, state.round + n) if not state.crashed[j % n])
        selected = {next(turn, state.round % n)} | forced
    else:
        selected = _greedy_activation(state, params, forced, live, decisions)
    newly_crashed = {i for rnd, i in adv.crash_schedule if rnd == state.round}
    crashed = [c or (i in newly_crashed) for i, c in enumerate(state.crashed)]
    actors = sorted(i for i in selected if not crashed[i])
    frames, stops = [], []
    for i in actors:
        frames.append(LocalFrame.random(rng, config.diameter))
        pos, decision = config.points[i], decisions[i]
        stay = decision.rule == gathering.RULE_STAY
        stops.append(pos if stay else _move_toward(pos, decision.destination, params.delta, adv.stop_policy, rng))
    return RoundChoice(crashed, actors, frames, stops)


def _greedy_activation(
    state: SimState,
    params: SimParams,
    forced: set[int],
    live: list[int],
    decisions: list[gathering.ComputeDecision],
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


def _apply(state: SimState, choice: RoundChoice) -> tuple[SimState, TraceRecord]:
    """Execute the adversary's choice, drawing nothing; returns (state, record).

    Each actor's decision must map back from its frame (the frame monitor);
    a stop within the merge slack of its destination snaps onto it, so
    multiplicities stay exact.  A round that moves no robot returns the
    input's own ``Configuration`` (stops are tested by identity, as ``==``
    takes -0.0 for 0.0), so ``run`` neither classifies nor decides it again.
    """
    config = state.config
    decisions = gathering.decide(config)
    frame_tol = max(_FRAME_MATCH_REL * config.diameter, config.resolution)
    stops = []
    for i, frame, stop in zip(choice.actors, choice.frames, choice.stops):
        local_decision = gathering.compute(frame.apply_config(config), i)
        decision = decisions[i]
        offset = dist(frame.invert_point(local_decision.destination), decision.destination)
        if local_decision.rule != decision.rule or offset > frame_tol:
            raise InvariantViolation(
                f"round {state.round}: robot {i} frame-dependent decision "
                f"({local_decision.rule} vs {decision.rule}, offset {offset:.3e})"
            )
        if decision.rule != gathering.RULE_STAY and dist(stop, decision.destination) <= config.merge_slack:
            stop = decision.destination
        stops.append(stop)
    stop_of = dict(zip(choice.actors, stops))
    since = [0 if i in stop_of else s + 1 for i, s in enumerate(state.since_activation)]
    record = TraceRecord(
        round=state.round,
        cls=config.cls.tag,
        positions=list(config.points),
        crashed=list(choice.crashed),
        activated=choice.actors,
        decisions=[(i, decisions[i].rule, decisions[i].destination) for i in choice.actors],
        stops=stops,
        gathered=False,
    )
    if not all(stop is config.points[i] for i, stop in stop_of.items()):
        config = Configuration([stop_of.get(i, p) for i, p in enumerate(config.points)], config.tol)
    return SimState(state.round + 1, config, choice.crashed, since), record


def step(state: SimState, adv: AdversarySpec, params: SimParams, rng: random.Random) -> tuple[SimState, TraceRecord]:
    """Execute one round: the adversary chooses, then its choice is applied.
    Decisions are the configuration's own (``gathering.decide``); a
    bivalent input raises ``BivalentInput``, and ``run`` never steps one."""
    return _apply(state, _choose(state, adv, params, rng, gathering.decide(state.config)))


# --- convergence guarantees as executable checks ------------------------------------


def check_transition(prev_config: Configuration, next_config: Configuration, delta: float) -> str | None:
    """Validate one round transition against the per-class convergence claims.

    ``prev_config`` and ``next_config`` are the round's configurations
    before and after, and ``delta`` the movement floor.  The check reads
    only the two configurations and their classes: a robot moved when its
    two points differ (``==`` per float, so -0.0 is 0.0), since a round
    changes only its actors' points.  It is the run's only bivalence test:
    a B successor is reported first, then a class ``_MAY_FOLLOW`` does not
    allow, then the class's own target check.  Returns a violation
    description, or None when the transition is allowed.
    """
    prev = prev_config.cls
    nxt = next_config.cls
    if nxt.tag == cfg.TAG_BIVALENT:
        return f"{prev.tag} -> B (bivalent reached)"
    allowed = _MAY_FOLLOW.get(prev.tag)
    if allowed is None:
        return f"transition from unexpected class {prev.tag}"
    if nxt.tag not in allowed:
        return f"{prev.tag} -> {nxt.tag}"
    wtol = _WEBER_MATCH_REL * prev_config.diameter

    if prev.tag == cfg.TAG_MULTIPLE:
        assert prev.elected is not None and nxt.elected is not None
        if dist(prev.elected, nxt.elected) > wtol:
            return "M -> M with a different elected point"
        return None

    if prev.tag in (cfg.TAG_L1W, cfg.TAG_QREGULAR):
        assert prev.weber is not None
        if nxt.tag in (cfg.TAG_L1W, cfg.TAG_QREGULAR):
            assert nxt.weber is not None
            if dist(prev.weber, nxt.weber) <= wtol:
                return None
            if nxt.tag == cfg.TAG_QREGULAR:
                return "QR -> QR with a moved center"
            return f"{prev.tag} -> L1W with a moved Weber point"
        if next_config.is_linear:
            lo, hi = cfg.median_interval(next_config)
            if dist(lo, prev.weber) > wtol or dist(hi, prev.weber) > wtol:
                return f"{prev.tag} -> M with a moved or split median"
            return None
        if dist(symmetry.weber_numeric(next_config), prev.weber) > wtol:
            return f"{prev.tag} -> M with a moved Weber point"
        return None

    if prev.tag == cfg.TAG_ASYMMETRIC:
        if nxt.tag == cfg.TAG_ASYMMETRIC and prev_config.points != next_config.points:
            p_prev = gathering.potential(prev_config)
            p_next = gathering.potential(next_config)
            if p_next.mult > p_prev.mult:
                return None
            margin = 0.9 * delta
            if p_next.mult == p_prev.mult and 1.0 / p_next.inv_sum <= 1.0 / p_prev.inv_sum - margin:
                return None
            return "A -> A without potential progress"
        return None

    if nxt.tag != cfg.TAG_L2W:
        return None
    assert prev.endpoints is not None
    lo, hi = prev.endpoints
    slack = prev_config.merge_slack
    for p, q in zip(prev_config.points, next_config.points):
        if p != q and (dist(p, lo) <= slack or dist(p, hi) <= slack):
            return "L2W -> L2W although an endpoint robot moved"
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
        raise ValueError("at least one robot must stay correct")
    return len(robots)


def run(initial: Configuration, adv: AdversarySpec, params: SimParams) -> RunResult:
    """Iterate rounds until gathered, the round limit, or a broken invariant.

    Each round invariant is checked once.  ``check_transition`` alone tests
    for bivalence, from round 1 on; a bivalent start raises
    ``BivalentInitial``.  Wait-freedom lets at most one location stay in a
    round that does not gather: every location outside ``moving_set``
    stays.
    """
    n = initial.n
    if n < 3:
        raise TooFewRobots("gathering runs need at least three robots")
    crashes = _validate_crashes(n, adv)
    if initial.cls.tag == cfg.TAG_BIVALENT:
        raise BivalentInitial("gathering is impossible from a bivalent configuration")

    rng = random.Random(params.seed)
    state = SimState(0, initial, [False] * n, [0] * n)
    records: list[TraceRecord] = []
    prev: Configuration | None = None  # the last step's configuration
    checks = 0

    while True:
        config = state.config
        try:
            if prev is not None:
                violation = check_transition(prev, config, params.delta)
                checks += 1
                if violation is not None:
                    raise InvariantViolation(f"round {state.round}: {violation}")
            moving = gathering.moving_set(config)
            live = [not c for c in state.crashed]
            gathered = cfg.is_gathered(config, live, moving)
            if records:
                records[-1].gathered = gathered
            stationary = len(config.locations) - len(moving)
            if not gathered and stationary > 1:
                raise InvariantViolation(f"round {state.round}: {stationary} stationary locations (wait-freedom)")
            if gathered or state.round >= params.max_rounds:
                records.append(_terminal_record(state, gathered))
                outcome = OUTCOME_GATHERED if gathered else OUTCOME_MAX_ROUNDS
                return RunResult(outcome, state.round, records, None, crashes, params.seed, checks)

            state, record = step(state, adv, params, rng)
            records.append(record)
            prev = config
            log.debug("round %d: class %s, %d activated", record.round, record.cls, len(record.activated))
        except InvariantViolation as exc:
            records.append(_terminal_record(state, False))
            return RunResult(OUTCOME_VIOLATION, state.round, records, str(exc), crashes, params.seed, checks)


def _terminal_record(state: SimState, gathered: bool) -> TraceRecord:
    return TraceRecord(
        round=state.round,
        cls=state.config.cls.tag,
        positions=list(state.config.points),
        crashed=list(state.crashed),
        activated=[],
        decisions=[],
        stops=[],
        gathered=gathered,
    )
