"""Command-line front end: classify configurations, run and sweep simulations.

Exit codes for ``simulate``: 0 gathered, 2 round limit hit, 3 bivalent
input rejected, 4 invariant violation, 1 I/O or argument errors.  ``sweep``
exits 4 when any run violates an invariant, 1 on bad specs, 0 otherwise.
Every command exits 1 on an argument error the parser finds.
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
from contextlib import nullcontext

from . import configuration as cfg
from . import gathering, generators, symmetry
from .configuration import Configuration
from .errors import BivalentInitial, GatherError
from .geometry import Tolerance
from .simulator import (
    OUTCOME_GATHERED,
    OUTCOME_MAX_ROUNDS,
    OUTCOME_VIOLATION,
    AdversarySpec,
    SimParams,
    _validate_crashes,
    dumps_17g,
    run,
    trace_lines,
)

_ADVERSARY_NAMES = {
    "sync": "synchronous",
    "random": "random",
    "rr": "round_robin",
    "greedy": "adversarial_greedy",
}
_STOP_NAMES = {"full": "full_move", "min": "minimal", "rand": "random_fraction"}

EXIT_OUTCOMES = {OUTCOME_GATHERED: 0, OUTCOME_MAX_ROUNDS: 2, OUTCOME_VIOLATION: 4}

# Every run setting and its default, for ``simulate``'s flags and each sweep
# entry alike, save that ``simulate`` runs up to 100,000 rounds.  A
# ``delta`` of None means ``max(diameter, 1e-6) / 100``.
RUN_DEFAULTS = {
    "n": 5,
    "seed": 0,
    "eps": 1e-9,
    "delta": None,
    "max_rounds": 10_000,
    "fairness_bound": 8,
    "adversary": "sync",
    "activation_prob": 0.5,
    "stop": "full",
    "crashes": 0,
}
# The JSON types a sweep may give a setting, by the type of its default.
_KINDS = {int: (int,), float: (int, float), str: (str,), type(None): (int, float, type(None))}


def _pairs(path: str, what: str, entries, kind: type) -> list[tuple]:
    """Each entry of a points or crash-schedule list as a pair of ``kind``,
    ints taken only as they are, never truncated from floats or bools; a
    bad entry is a ValueError that names the file and the entry."""
    if not isinstance(entries, list):
        raise ValueError(f"{path}: expected a list, not {type(entries).__name__}")
    pairs = []
    for k, entry in enumerate(entries):
        try:
            a, b = entry
            if kind is int and not (type(a) is int and type(b) is int):
                raise TypeError
            pairs.append((kind(a), kind(b)))
        except (TypeError, ValueError):
            raise ValueError(f"{path}: {what} {k} is not a pair of {kind.__name__}s: {entry!r}") from None
    return pairs


def load_configuration(path: str, tol: Tolerance | None = None) -> Configuration:
    """Read robot positions from a JSON ({"points": [[x, y], ...]}) or CSV file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json") or text.lstrip().startswith("{"):
        obj = json.loads(text)
        if not isinstance(obj, dict) or "points" not in obj:
            raise ValueError(f'{path}: expected {{"points": [[x, y], ...]}}')
        rows = obj["points"]
    else:
        rows = [row[:2] for row in csv.reader(text.splitlines()) if row and row[0].strip().lower() not in ("x", "")]
    return Configuration(_pairs(path, "point", rows, float), tol)


def build_run(settings: dict) -> tuple[Configuration, AdversarySpec, SimParams]:
    """The start, adversary and parameters of one run from its settings.

    ``settings`` holds every key of ``RUN_DEFAULTS``, and ``simulate``'s or
    ``classify``'s ``input`` and ``crash_schedule`` files where given.  The
    start (the input file, else ``n`` uniform robots) and then the crash
    schedule (its file, else ``crashes`` robots, each at a random round
    below 40) draw from ``random.Random(seed)`` in that order.  Negative
    ``crashes`` and a run that would crash every robot are refused here.
    """
    if settings["crashes"] < 0:
        raise ValueError(f"crashes cannot be negative: {settings['crashes']}")
    eps, delta = float(settings["eps"]), settings["delta"]
    rng = random.Random(settings["seed"])
    if settings.get("input"):
        config = load_configuration(settings["input"], Tolerance(eps, eps))
    else:
        config = generators.uniform_configuration(rng, settings["n"], Tolerance(eps, eps))
    config.cls  # classification refuses an out-of-range diameter before SimParams sees its delta
    if settings.get("crash_schedule"):
        with open(settings["crash_schedule"], "r", encoding="utf-8") as fh:
            schedule = _pairs(settings["crash_schedule"], "crash", json.load(fh), int)
    else:
        # more crashes than robots crash every robot, which is refused below
        victims = rng.sample(range(config.n), min(settings["crashes"], config.n))
        schedule = [(rng.randrange(0, 40), i) for i in victims]
    adv = AdversarySpec(
        activation=_ADVERSARY_NAMES.get(settings["adversary"], settings["adversary"]),
        activation_prob=float(settings["activation_prob"]),
        stop_policy=_STOP_NAMES.get(settings["stop"], settings["stop"]),
        crash_schedule=tuple(schedule),
    )
    _validate_crashes(config.n, adv)
    params = SimParams(
        delta=max(config.diameter, 1e-6) / 100.0 if delta is None else float(delta),
        max_rounds=settings["max_rounds"],
        fairness_bound=settings["fairness_bound"],
        seed=settings["seed"],
    )
    return config, adv, params


def _setup_logging() -> None:
    level_name = os.environ.get("GATHER_LOG", "warning").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, stream=sys.stderr, format="%(levelname)s %(message)s")


class _Parser(argparse.ArgumentParser):
    """Argument errors exit 1, as every other bad input does: argparse's own
    2 is ``simulate``'s round-limit code.  Subcommand parsers are of this
    class too."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gathersim")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one gathering simulation")
    src = sim.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="configuration file (JSON or CSV)")
    src.add_argument("--n", type=int, help="generate n random robots instead of reading a file")
    sim.add_argument("--seed", type=int)
    sim.add_argument("--delta", type=float, help="movement floor (default: max(diameter, 1e-6)/100)")
    sim.add_argument("--eps", type=float, help="length and angle tolerance")
    sim.add_argument("--max-rounds", type=int)
    sim.add_argument("--fairness-bound", type=int)
    sim.add_argument("--adversary", choices=sorted(_ADVERSARY_NAMES))
    sim.add_argument("--activation-prob", type=float)
    sim.add_argument("--stop", choices=sorted(_STOP_NAMES))
    sim.add_argument("--crashes", type=int, help="crash this many robots at random rounds")
    sim.add_argument("--crash-schedule", help="JSON file with [[round, robot], ...]")
    sim.add_argument("--out", help="trace output path (JSON Lines)")
    sim.add_argument("--summary", help="summary JSON path (default: stdout)")
    # argparse takes an ``--n`` equal to its default for no ``--n`` at all
    sim.set_defaults(**dict(RUN_DEFAULTS, n=None, max_rounds=100_000))

    cls = sub.add_parser("classify", help="classify a configuration file")
    cls.add_argument("input")
    cls.add_argument("--eps", type=float)
    cls.add_argument("--decide", action="store_true", help="include per-robot decisions")
    cls.set_defaults(**RUN_DEFAULTS)

    swp = sub.add_parser("sweep", help="run a batch of simulations from a spec file")
    swp.add_argument("spec")
    swp.add_argument("--out", help="CSV output path (default: stdout)")
    swp.add_argument("--jobs", type=int, default=1, help="worker processes, at most one per run (default: 1)")
    return parser


def cmd_simulate(args: argparse.Namespace) -> int:
    config, adv, params = build_run(vars(args))
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
    config = build_run(vars(args))[0]
    cls = config.cls
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
            for i, d in enumerate(gathering.compute(config, i) for i in range(config.n))
        ]
    print(dumps_17g(report))
    return 0


def _check_setting(where: str, key: str, values: list) -> None:
    """Refuse a setting outside ``RUN_DEFAULTS``, or a value not of its
    default's type (a number for ``delta``)."""
    if key not in RUN_DEFAULTS:
        raise ValueError(f"{where}: unknown setting {key!r}")
    for value in values:
        if type(value) not in _KINDS[type(RUN_DEFAULTS[key])]:
            raise ValueError(f"{where}: {key} cannot be {value!r}")


def _settings(where: str, entry) -> dict:
    """A spec's object of settings, each checked by ``_check_setting``."""
    if not isinstance(entry, dict):
        raise ValueError(f"{where} is not an object of settings: {entry!r}")
    for key, value in entry.items():
        _check_setting(where, key, [value])
    return entry


def _sweep_entries(path: str, spec) -> list[dict]:
    """Every run of the spec, the listed ones first: each is ``RUN_DEFAULTS``,
    then the spec's ``defaults``, then the run's own settings."""
    if not isinstance(spec, dict) or set(spec) - {"defaults", "runs", "grid"}:
        raise ValueError(f'{path}: expected an object of "defaults", "runs" and "grid" only')
    runs, grid = spec.get("runs", []), spec.get("grid", {})
    if not isinstance(runs, list) or not isinstance(grid, dict):
        raise ValueError(f"{path}: expected runs as a list and grid as an object")
    defaults = _settings(f"{path}: defaults", spec.get("defaults", {}))
    entries = [_settings(f"{path}: runs[{k}]", entry) for k, entry in enumerate(runs)]
    if grid:
        combos: list[dict] = [{}]
        for key in sorted(grid):
            if not isinstance(grid[key], list):
                raise ValueError(f"{path}: grid {key} is not a list of values")
            _check_setting(f"{path}: grid", key, grid[key])
            combos = [dict(c, **{key: v}) for c in combos for v in grid[key]]
        entries += combos
    return [{**RUN_DEFAULTS, **defaults, **entry} for entry in entries]


def _run_sweep_entry(settings: dict) -> dict:
    result = run(*build_run(settings))
    return dict(settings, crashes=result.crashes, outcome=result.outcome, rounds=result.rounds)


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, not {args.jobs}")
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    entries = _sweep_entries(args.spec, spec)
    if not entries:
        raise ValueError("sweep spec contains no runs")
    for k, settings in enumerate(entries):
        try:  # refuse a bad entry before any run starts
            build_run(settings)
        except ValueError as exc:
            raise ValueError(f"{args.spec}: run {k}: {exc}") from None
    # the executor forks every worker at its first submit, so never more
    # than there are runs
    workers = min(args.jobs, len(entries))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_sweep_entry, entries))
    else:
        rows = [_run_sweep_entry(settings) for settings in entries]

    fieldnames = ["run_id", "n", "adversary", "stop", "crashes", "seed", "outcome", "rounds"]
    with open(args.out, "w", newline="", encoding="utf-8") if args.out else nullcontext(sys.stdout) as out:
        writer = csv.DictWriter(out, fieldnames=fieldnames, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(dict(row, run_id=k) for k, row in enumerate(rows))
    return 4 if any(r["outcome"] == OUTCOME_VIOLATION for r in rows) else 0


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
    except (OSError, json.JSONDecodeError, ValueError, GatherError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
