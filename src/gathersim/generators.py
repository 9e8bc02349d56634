"""Seeded construction of robot configurations for runs and tests."""

from __future__ import annotations

import math
import random

from .configuration import Configuration, TAG_BIVALENT
from .geometry import TAU, Point, Tolerance, rotate_cw


def uniform_configuration(rng: random.Random, n: int, tol: Tolerance | None = None) -> Configuration:
    """n independent uniform positions in the unit square, never bivalent."""
    if n < 3:
        raise ValueError("generated runs need at least three robots")
    while True:
        config = Configuration([Point(rng.random(), rng.random()) for _ in range(n)], tol)
        if config.cls.tag != TAG_BIVALENT:
            return config


def collinear_configuration(
    rng: random.Random, n: int, tol: Tolerance | None = None, unique_median: bool = False
) -> Configuration:
    """n robots on one random line, optionally forcing class L1W.

    With ``unique_median`` the built configuration has a unique median and no
    strict multiplicity maximum; even counts need n >= 6 for that to exist.
    """
    origin = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
    theta = rng.uniform(0, TAU)
    ux, uy = math.cos(theta), math.sin(theta)

    if unique_median:
        if n % 2:
            values = sorted({rng.uniform(-1, 1) for _ in range(n)})
            while len(values) < n:
                values.append(rng.uniform(-1, 1))
        elif n >= 6:
            med = rng.uniform(-0.3, 0.3)
            lowest = rng.uniform(-1, med - 0.1)
            below = [lowest, lowest] + [rng.uniform(lowest, med - 0.01) for _ in range(n // 2 - 3)]
            above = [rng.uniform(med + 0.01, 1.2) for _ in range(n // 2 - 1)]
            values = below + [med, med] + above
        else:
            raise ValueError("an even configuration below six robots cannot be L1W")
    else:
        values = [rng.uniform(-1, 1) for _ in range(n)]
        if rng.random() < 0.4:
            # fold some robots onto shared spots
            spots = [rng.uniform(-1, 1) for _ in range(max(2, n // 2))]
            values = [rng.choice(spots) for _ in range(n)]
    pts = [Point(origin.x + t * ux, origin.y + t * uy) for t in values]
    return Configuration(pts, tol)


def multiplicity_configuration(rng: random.Random, n: int, tol: Tolerance | None = None) -> Configuration:
    """Random positions with robots folded onto a few shared locations."""
    spots = [Point(rng.random(), rng.random()) for _ in range(rng.randint(2, max(2, n - 1)))]
    pts = [rng.choice(spots) for _ in range(n)]
    return Configuration(pts, tol)


def symmetric_configuration(
    rng: random.Random,
    k: int | None = None,
    orbits: int | None = None,
    with_center: bool | None = None,
    tol: Tolerance | None = None,
) -> Configuration:
    """Configuration invariant under rotation by 2*pi/k around a random center."""
    k = k or rng.randint(2, 6)
    orbits = orbits or rng.randint(1, 2)
    if with_center is None:
        with_center = rng.random() < 0.3
    center = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
    pts: list[Point] = []
    for _ in range(orbits):
        base = rotate_cw(
            Point(center.x + rng.uniform(0.3, 1.5), center.y), center, rng.uniform(0, TAU)
        )
        mult = rng.randint(1, 2)
        for j in range(k):
            vertex = rotate_cw(base, center, j * TAU / k)
            pts.extend([vertex] * mult)
    if with_center:
        pts.append(center)
    return Configuration(pts, tol)


def bivalent_configuration(rng: random.Random, n: int, tol: Tolerance | None = None) -> Configuration:
    if n % 2:
        raise ValueError("bivalent configurations need an even robot count")
    a = Point(rng.random(), rng.random())
    b = Point(a.x + rng.uniform(0.5, 1.5), a.y + rng.uniform(-0.5, 0.5))
    return Configuration([a] * (n // 2) + [b] * (n // 2), tol)


class QuasiRegularInstance:
    """A constructed quasi-regular configuration and its ground truth."""

    def __init__(self, config: Configuration, center: Point, m: int, parked: int):
        self.config = config
        self.center = center
        self.m = m
        self.parked = parked


def construct_quasi_regular(
    rng: random.Random,
    m: int | None = None,
    tol: Tolerance | None = None,
    park_deficits: bool = True,
) -> QuasiRegularInstance:
    """Build a quasi-regular instance around a known center.

    Rays come in full rotation orbits; on each orbit some rays are left
    short of the orbit maximum and exactly that many robots are parked at
    the center (when ``park_deficits``), so the center is occupied and the
    membership inequality holds with equality.
    """
    m = m or rng.randint(2, 6)
    while True:
        center = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
        n_orbits = 2 if m == 2 else rng.randint(1, 2)

        pts: list[Point] = []
        parked = 0
        bases: list[float] = []
        for _ in range(n_orbits):
            while True:
                base = rng.uniform(0, TAU / m)
                if all(min(abs(base - b), TAU / m - abs(base - b)) > 0.2 / m for b in bases):
                    break
            bases.append(base)
            obj = rng.randint(1, 2)
            counts = [obj] + [rng.randint(0, obj) for _ in range(m - 1)]
            rng.shuffle(counts)
            if park_deficits and all(c == obj for c in counts):
                counts[rng.randrange(m)] = obj - 1 if obj > 1 else 0
            if not park_deficits:
                counts = [obj] * m
            for slot, count in enumerate(counts):
                theta = base + slot * TAU / m
                for _ in range(count):
                    radius = rng.uniform(0.3, 1.5)
                    pts.append(
                        Point(center.x + radius * math.cos(theta), center.y + radius * math.sin(theta))
                    )
                parked += obj - count
        if park_deficits:
            pts.extend([center] * parked)
        config = Configuration(pts, tol)
        if not config.is_linear:
            return QuasiRegularInstance(config, center, m, parked if park_deficits else 0)


def broken_quasi_regular(rng: random.Random, tol: Tolerance | None = None) -> Configuration:
    """A perturbed instance that is not quasi-regular anywhere.

    Rotating a single robot is not always enough: robots parked at the
    center can repair any small number of displaced rays.  Displacing one
    robot more than there are parked robots leaves every candidate order
    with a deficit the center cannot cover.
    """
    while True:
        built = construct_quasi_regular(rng, tol=tol)
        off = [i for i, p in enumerate(built.config.points) if p != built.center]
        victims_needed = built.parked + 1
        # small instances can stay regular by accident (the Fermat point of a
        # sharp triangle, the diagonal crossing of a convex quadrilateral), so
        # insist on at least five displaced generic rays
        if victims_needed > len(off) or len(off) < 5 or built.parked < 1:
            continue
        pts = list(built.config.points)
        for i in rng.sample(off, victims_needed):
            eps = rng.uniform(0.05, 0.3) * rng.choice([-1.0, 1.0])
            pts[i] = rotate_cw(pts[i], built.center, eps)
        config = Configuration(pts, built.config.tol)
        if not config.is_linear:
            return config
