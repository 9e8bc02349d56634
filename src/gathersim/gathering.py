"""Destination computation for one robot from one snapshot.

Pure functions of the observed configuration: robots keep no state between
activations, and co-located robots always receive identical decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from . import configuration as cfg
from . import symmetry
from .configuration import ConfigClass, Configuration
from .errors import BivalentInput, WrongClass
from .geometry import TAU, Point, _plain_sum, angle_cw, dist, on_open_segment, rotate_cw

RULE_M_DIRECT = "M_direct"
RULE_M_SIDESTEP = "M_sidestep"
RULE_WEBER = "WeberMove"
RULE_A_ELECT = "A_elect"
RULE_L2W_CENTER = "L2W_center"
RULE_L2W_ROTATE = "L2W_rotate"
RULE_STAY = "Stay"


@dataclass
class ComputeDecision:
    destination: Point
    rule: str
    elected: Point | None = None


class PotentialValue(NamedTuple):
    """Lexicographic progress measure of asymmetric configurations."""

    mult: int
    inv_sum: float


def compute(config: Configuration, self_index: int, cls: ConfigClass | None = None) -> ComputeDecision:
    """Destination of the robot at ``self_index`` given the snapshot.

    ``cls`` may carry a precomputed classification of the same configuration
    to avoid repeating it for every robot of one round.
    """
    if cls is None:
        cls = cfg.classify(config)
    r = config.points[self_index]
    slack = config.merge_slack

    if cls.tag == cfg.TAG_BIVALENT:
        raise BivalentInput("the protocol defines no move in a bivalent configuration")

    if cls.tag == cfg.TAG_MULTIPLE:
        elected = cls.elected
        assert elected is not None
        if dist(r, elected) <= slack:
            return ComputeDecision(r, RULE_STAY, elected)
        if not _blocked(config, r, elected):
            return ComputeDecision(elected, RULE_M_DIRECT, elected)
        theta = _sidestep_angle(config, self_index, elected)
        return ComputeDecision(rotate_cw(r, elected, theta / 3.0), RULE_M_SIDESTEP, elected)

    if cls.tag in (cfg.TAG_L1W, cfg.TAG_QREGULAR):
        target = cls.weber
        assert target is not None
        if dist(r, target) <= slack:
            return ComputeDecision(r, RULE_STAY)
        return ComputeDecision(target, RULE_WEBER)

    if cls.tag == cfg.TAG_ASYMMETRIC:
        elected = cls.elected
        assert elected is not None
        if dist(r, elected) <= slack:
            return ComputeDecision(r, RULE_STAY, elected)
        return ComputeDecision(elected, RULE_A_ELECT, elected)

    assert cls.tag == cfg.TAG_L2W and cls.endpoints is not None and cls.midpoint is not None
    lo, hi = cls.endpoints
    mid = cls.midpoint
    if dist(r, lo) <= slack or dist(r, hi) <= slack:
        return ComputeDecision(rotate_cw(r, mid, math.pi / 4.0), RULE_L2W_ROTATE)
    if dist(r, mid) <= slack:
        return ComputeDecision(r, RULE_STAY)
    return ComputeDecision(mid, RULE_L2W_CENTER)


def _blocked(config: Configuration, r: Point, elected: Point) -> bool:
    """Whether some robot lies on the open segment from r to the elected point.

    ``on_open_segment(q, r, elected)`` runs only on the robots q that pass a
    filter on a = q - e and b = r - e (e the elected point): the cross
    product a x b within merge_slack*|b|, and the dot product a.b in
    (0, |b|^2), each widened by a margin.  Soundness: r, q and e are robot
    positions, so every distance ``on_open_segment`` measures is at most the
    diameter D and its slack at most ``merge_slack``.  Its offset test then
    bounds the exact |a x b| by that slack times |b| (the cross product it
    takes from r has the same magnitude), and its 0 < t < 1 test places the
    exact a.b in (0, |b|^2), where t is the position of q along r -> e and
    1 - t = a.b / |b|^2.  The two cross products, the two dot products and
    |b| are each computed within 17u*D^2 or a relative 8u of the exact values
    (u = 2^-53), so the margins, a relative 1e-12 on the slack term and
    1e-14*D^2 on each bound, keep every robot it can accept.  Robots at r
    or at e pass the filter but never lie strictly between them.
    """
    ex, ey = elected
    bx = r.x - ex
    by = r.y - ey
    nb = bx * bx + by * by
    margin = 1e-14 * config.diameter * config.diameter
    cross_bound = config.merge_slack * math.hypot(bx, by) * (1.0 + 1e-12) + margin
    tol = config.tol
    for q in config.points:
        ax = q.x - ex
        ay = q.y - ey
        dot = ax * bx + ay * by
        if (
            -margin < dot < nb + margin
            and abs(ax * by - ay * bx) <= cross_bound
            and q != r
            and q != elected
            and on_open_segment(q, r, elected, tol)
        ):
            return True
    return False


def _sidestep_angle(config: Configuration, self_index: int, elected: Point) -> float:
    """Clockwise angle to the first successor off the robot's own ray.

    Falls back to a full turn when every robot outside the elected point
    lies on the ray through the moving robot, so the side step still clears
    one third of the available gap.

    Every robot's sweep walks the one ``symmetry.Rays`` index around the
    elected point, O(log n) per step.  The off-ray robots are counted only
    when the sweep finds none, to tell a full turn from a missed robot;
    counting them first gives the same results, as ``_same_ray`` never
    raises.
    """
    r = config.points[self_index]
    steps = config.n - config.multiplicity_at(elected)
    cur = self_index
    for _ in range(steps):
        cur = symmetry.successor(config, cur, elected)
        q = config.points[cur]
        if not _same_ray(config, elected, r, q):
            return angle_cw(r, elected, q, config.tol)
    if any(not _same_ray(config, elected, r, config.points[i]) for i in symmetry.Rays.of(config, elected).off):
        raise RuntimeError("successor sweep missed every off-ray robot")
    return TAU


def _same_ray(config: Configuration, center: Point, a: Point, b: Point) -> bool:
    """Whether a and b, both beyond the merge slack of center, share a ray.

    ``angle_cw`` measures at the configuration's tolerance, so it never
    raises here: both distances exceed the merge slack, which is at least
    ``eps_len`` times the diameter, and neither exceeds the diameter.
    """
    if dist(a, b) <= config.merge_slack:
        return True
    theta = angle_cw(a, center, b, config.tol)
    eps = config.tol.eps_angle
    return theta <= eps or theta >= TAU - eps


def moving_set(config: Configuration, cls: ConfigClass | None = None) -> list[Point]:
    """Occupied locations whose robots are instructed to move."""
    if cls is None:
        cls = cfg.classify(config)
    if cls.tag == cfg.TAG_BIVALENT:
        raise BivalentInput("moving set undefined for bivalent configurations")
    out = []
    for loc in config.locations:
        decision = compute(config, loc.indices[0], cls)
        if decision.rule != RULE_STAY:
            out.append(loc.location)
    return out


def potential(config: Configuration, cls: ConfigClass | None = None) -> PotentialValue:
    """(multiplicity, 1/distance-sum) of the elected safe point (class A only)."""
    if cls is None:
        cls = cfg.classify(config)
    if cls.tag != cfg.TAG_ASYMMETRIC or cls.elected is None:
        raise WrongClass(f"potential is defined for class A, not {cls.tag}")
    total = _plain_sum(symmetry.Rays.of(config, cls.elected).dists)
    return PotentialValue(config.multiplicity_at(cls.elected), 1.0 / total)
