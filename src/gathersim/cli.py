"""Command-line front end: classify configurations, run and sweep simulations.

Exit codes for ``simulate``: 0 gathered, 2 round limit hit, 3 bivalent
input rejected, 4 invariant violation, 1 I/O or argument errors.  ``sweep``
exits 4 when any run violates an invariant, 1 on bad specs, 0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import random
import sys
from concurrent.futures import ProcessPoolExecutor

from . import configuration as cfg
from . import gathering, generators, symmetry
from .configuration import Configuration
from .errors import BivalentInitial, GatherError
from .geometry import Point, Tolerance
from .simulator import (
    OUTCOME_GATHERED,
    OUTCOME_MAX_ROUNDS,
    OUTCOME_VIOLATION,
    AdversarySpec,
    SimParams,
    dumps_17g,
    run,
    trace_lines,
)

log = logging.getLogger("gathersim")

_ADVERSARY_NAMES = {
    "sync": "synchronous",
    "random": "random",
    "rr": "round_robin",
    "greedy": "adversarial_greedy",
}
_STOP_NAMES = {"full": "full_move", "min": "minimal", "rand": "random_fraction"}

EXIT_OUTCOMES = {OUTCOME_GATHERED: 0, OUTCOME_MAX_ROUNDS: 2, OUTCOME_VIOLATION: 4}


def load_configuration(path: str, tol: Tolerance | None = None) -> Configuration:
    """Read robot positions from a JSON ({"points": [[x, y], ...]}) or CSV file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json") or text.lstrip().startswith("{"):
        obj = json.loads(text)
        points = [Point(float(x), float(y)) for x, y in obj["points"]]
    else:
        points = []
        for row in csv.reader(text.splitlines()):
            if not row or row[0].strip().lower() in ("x", ""):
                continue
            points.append(Point(float(row[0]), float(row[1])))
    return Configuration(points, tol)


def _setup_logging() -> None:
    level_name = os.environ.get("GATHER_LOG", "warning").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, stream=sys.stderr, format="%(levelname)s %(message)s")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gathersim")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one gathering simulation")
    src = sim.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="configuration file (JSON or CSV)")
    src.add_argument("--n", type=int, help="generate n random robots instead of reading a file")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--delta", type=float, default=None, help="movement floor (default: diameter/100)")
    sim.add_argument("--eps", type=float, default=1e-9, help="length and angle tolerance")
    sim.add_argument("--max-rounds", type=int, default=100_000)
    sim.add_argument("--fairness-bound", type=int, default=8)
    sim.add_argument("--adversary", choices=sorted(_ADVERSARY_NAMES), default="sync")
    sim.add_argument("--activation-prob", type=float, default=0.5)
    sim.add_argument("--stop", choices=sorted(_STOP_NAMES), default="full")
    sim.add_argument("--crashes", type=int, default=0, help="crash this many robots at random rounds")
    sim.add_argument("--crash-schedule", help="JSON file with [[round, robot], ...]")
    sim.add_argument("--out", help="trace output path (JSON Lines)")
    sim.add_argument("--summary", help="summary JSON path (default: stdout)")

    cls = sub.add_parser("classify", help="classify a configuration file")
    cls.add_argument("input")
    cls.add_argument("--eps", type=float, default=1e-9)
    cls.add_argument("--decide", action="store_true", help="include per-robot decisions")

    swp = sub.add_parser("sweep", help="run a batch of simulations from a spec file")
    swp.add_argument("spec")
    swp.add_argument("--out", help="CSV output path (default: stdout)")
    swp.add_argument("--jobs", type=int, default=1)
    return parser


def _check_crash_count(n: int, crashes: int) -> None:
    if crashes >= n:
        raise ValueError("at least one robot must stay correct")


def _crash_schedule(rng: random.Random, n: int, crashes: int) -> list[tuple[int, int]]:
    """Crash ``crashes`` distinct robots, each at a random round below 40."""
    _check_crash_count(n, crashes)
    victims = rng.sample(range(n), crashes)
    return [(rng.randrange(0, 40), i) for i in victims]


def _run_setup(
    settings: dict, config: Configuration, schedule: list[tuple[int, int]]
) -> tuple[AdversarySpec, SimParams]:
    """The adversary and parameters of one run from its settings.

    ``settings`` carries every key, ``simulate``'s from argparse and a sweep
    entry's through ``_SWEEP_DEFAULTS``.  A ``delta`` of None means
    ``max(diameter, 1e-6) / 100``.
    """
    delta = settings["delta"]
    adv = AdversarySpec(
        activation=_ADVERSARY_NAMES.get(settings["adversary"], settings["adversary"]),
        activation_prob=float(settings["activation_prob"]),
        stop_policy=_STOP_NAMES.get(settings["stop"], settings["stop"]),
        crash_schedule=tuple(schedule),
    )
    params = SimParams(
        delta=max(config.diameter, 1e-6) / 100.0 if delta is None else float(delta),
        max_rounds=int(settings["max_rounds"]),
        fairness_bound=int(settings["fairness_bound"]),
        seed=int(settings["seed"]),
    )
    return adv, params


def cmd_simulate(args: argparse.Namespace) -> int:
    tol = Tolerance(args.eps, args.eps)
    rng = random.Random(args.seed)
    if args.input:
        config = load_configuration(args.input, tol)
    else:
        if args.n is None:
            print("error: provide --input or --n", file=sys.stderr)
            return 1
        config = generators.uniform_configuration(rng, args.n, tol)

    schedule: list[tuple[int, int]] = []
    if args.crash_schedule:
        with open(args.crash_schedule, "r", encoding="utf-8") as fh:
            schedule = [(int(r), int(i)) for r, i in json.load(fh)]
    elif args.crashes:
        schedule = _crash_schedule(rng, config.n, args.crashes)

    adv, params = _run_setup(vars(args), config, schedule)
    try:
        result = run(config, adv, params)
    except BivalentInitial as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 3

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(trace_lines(result.records))
    summary = dumps_17g(result.summary())
    if args.summary:
        with open(args.summary, "w", encoding="utf-8") as fh:
            fh.write(summary + "\n")
    else:
        print(summary)
    if result.detail:
        print(f"invariant violation: {result.detail}", file=sys.stderr)
    return EXIT_OUTCOMES[result.outcome]


def cmd_classify(args: argparse.Namespace) -> int:
    tol = Tolerance(args.eps, args.eps)
    config = load_configuration(args.input, tol)
    cls = cfg.classify(config)
    report: dict = {"class": cls.tag, "sym": symmetry.symmetricity(config)}
    if not config.is_linear:
        report["qreg"] = cls.qreg if cls.tag == cfg.TAG_QREGULAR else 1
    if cls.weber is not None:
        report["weber"] = [cls.weber.x, cls.weber.y]
    report["safe_points"] = [[p.x, p.y] for p in cfg.safe_points(config)]
    if cls.elected is not None:
        report["elected"] = [cls.elected.x, cls.elected.y]
    if args.decide and cls.tag != cfg.TAG_BIVALENT:
        report["decisions"] = [
            {"robot": i, "rule": d.rule, "dest": [d.destination.x, d.destination.y]}
            for i, d in (
                (i, gathering.compute(config, i, cls)) for i in range(config.n)
            )
        ]
    print(dumps_17g(report))
    return 0


# Settings a sweep entry may leave out; ``simulate`` has argparse defaults.
_SWEEP_DEFAULTS = {
    "n": 5,
    "seed": 0,
    "eps": 1e-9,
    "crashes": 0,
    "adversary": "sync",
    "stop": "full",
    "activation_prob": 0.5,
    "delta": None,
    "max_rounds": 10_000,
    "fairness_bound": 8,
}


def _sweep_entries(spec: dict) -> list[dict]:
    """Every run of the spec, with ``_SWEEP_DEFAULTS`` for the settings it omits."""
    entries = list(spec.get("runs", []))
    grid = spec.get("grid")
    if grid:
        defaults = spec.get("defaults", {})
        keys = sorted(grid)
        combos = [{}]
        for key in keys:
            combos = [dict(c, **{key: v}) for c in combos for v in grid[key]]
        entries.extend(dict(defaults, **c) for c in combos)
    return [dict(_SWEEP_DEFAULTS, **entry) for entry in entries]


def _run_sweep_entry(item: tuple[int, dict]) -> dict:
    run_id, settings = item
    n = int(settings["n"])
    seed = int(settings["seed"])
    eps = float(settings["eps"])
    rng = random.Random(seed)
    config = generators.uniform_configuration(rng, n, Tolerance(eps, eps))
    crashes = int(settings["crashes"])
    schedule = _crash_schedule(rng, n, crashes) if crashes else []
    adv, params = _run_setup(settings, config, schedule)
    result = run(config, adv, params)
    return {
        "run_id": run_id,
        "n": n,
        "adversary": settings["adversary"],
        "stop": settings["stop"],
        "crashes": result.crashes,
        "seed": seed,
        "outcome": result.outcome,
        "rounds": result.rounds,
    }


def cmd_sweep(args: argparse.Namespace) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    entries = _sweep_entries(spec)
    if not entries:
        print("error: sweep spec contains no runs", file=sys.stderr)
        return 1
    for entry in entries:
        _check_crash_count(int(entry["n"]), int(entry["crashes"]))
    items = list(enumerate(entries))
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_run_sweep_entry, items))
    else:
        rows = [_run_sweep_entry(item) for item in items]
    rows.sort(key=lambda r: r["run_id"])

    fieldnames = ["run_id", "n", "adversary", "stop", "crashes", "seed", "outcome", "rounds"]
    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    if any(r["outcome"] == OUTCOME_VIOLATION for r in rows):
        return 4
    return 0


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "classify":
            return cmd_classify(args)
        return cmd_sweep(args)
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GatherError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
