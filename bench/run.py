#!/usr/bin/env python3
"""gathersim benchmark: closed-loop workloads over the public API.

Usage (from the root of a checkout):

    python3 bench/run.py --workload classify-snapshots --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --self-test

``--trace 0`` measures whole passes over the workload's inputs, untraced,
until ``--seconds`` is reached and prints the end-to-end metrics.
``--trace 1`` runs one untraced pass and one traced pass over the same
inputs, checks that both give the same results, and prints the per-layer
metrics.  The last line of standard output is always one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything
else, raw spans included, goes to ``.bench_out/`` in the checkout.

The program is imported from ``src/`` of the checkout this file lives in;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

import hostspeed  # noqa: E402  (the script's own directory is on sys.path)
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


class MissingProgram(RuntimeError):
    pass


def import_fresh():
    """Import gathersim from this checkout's src/, discarding earlier imports."""
    src = ROOT / "src"
    if not (src / "gathersim" / "__init__.py").is_file():
        raise MissingProgram(f"no gathersim package under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "gathersim" or m.startswith("gathersim.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    api = importlib.import_module("gathersim")
    importlib.import_module("gathersim.simulator")
    if Path(api.__file__).resolve().parent != (src / "gathersim").resolve():
        raise MissingProgram(f"gathersim was imported from {api.__file__}, not from {src}")
    return api


# --- workloads ------------------------------------------------------------------------


class SnapshotWorkload:
    name = "classify-snapshots"
    why = (
        "the only workload that reaches n=160, where the complexity target lives; "
        "all six classes, no simulator work"
    )

    def __init__(self, api, seed: int):
        self.api = api
        self.items = workloads.snapshot_corpus(seed)

    def warm_up(self) -> None:
        for snap in self.items:
            if snap.n == min(workloads.SNAPSHOT_SIZES):
                workloads.decide_snapshot(self.api, snap)

    def process(self, snap):
        return workloads.decide_snapshot(self.api, snap)

    def check(self, snap, out):
        config, cls, decisions = out
        return workloads.snapshot_digest(cls, decisions), 0, workloads.check_snapshot(snap, config, cls, decisions)


class RunWorkload:
    def __init__(self, api, seed: int):
        self.api = api
        self.items = self.build(seed)

    def process(self, item):
        return workloads.simulate(self.api, item)

    def check(self, item, out):
        result, text = out
        return hashlib.sha256(text.encode()).digest(), result.rounds, workloads.check_run(item, result)


class SyncLargeWorkload(RunWorkload):
    name = "sync-large"
    why = (
        "every robot active every round, so the local-frame monitor classifies n+1 times "
        "per round; A and QR classification dominate"
    )
    build = staticmethod(workloads.sync_large_runs)

    def warm_up(self) -> None:
        pts = workloads.uniform_points(random.Random(0), 6)
        item = workloads.RunInput(pts, "synchronous", "minimal", (), workloads.diameter(pts) / 100.0, 0, "warm-up")
        workloads.simulate(self.api, item)


class SweepSmallWorkload(RunWorkload):
    name = "sweep-small"
    why = (
        "the acceptance sweep's traffic: many short runs, all classes, crashes and "
        "1-2 robots per round under round_robin/greedy"
    )
    build = staticmethod(workloads.sweep_small_runs)

    def warm_up(self) -> None:
        for item in self.items[: len(workloads.SWEEP_CELLS)]:
            if len(item.points) <= 4:
                workloads.simulate(self.api, item)


WORKLOADS = {w.name: w for w in (SnapshotWorkload, SyncLargeWorkload, SweepSmallWorkload)}


# --- measurement ------------------------------------------------------------------------


@dataclass
class Pass:
    raw: list[float]      # wall seconds per item
    samples: list[float]  # the same, scaled to the nominal host speed
    host_speed: float     # median over items of NOMINAL_S / reference time
    digests: list[bytes] = field(default_factory=list)
    rounds: list[int] = field(default_factory=list)
    errors: list[str | None] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(self.samples)

    @property
    def digest(self) -> str:
        return hashlib.sha256(b"".join(self.digests)).hexdigest()


def run_pass(wl, tracer: tracing.Tracer | None = None) -> Pass:
    """Process every item once, each only after the previous one finished.

    Host-speed reference samples are taken between items, outside the timed
    region and outside any span.
    """
    clock = time.perf_counter
    raw, outs = [], []
    sampler = hostspeed.Sampler()
    for position, item in enumerate(wl.items):
        sampler.before(position, force=position == 0)
        t0 = clock()
        try:
            if tracer is None:
                out = wl.process(item)
            else:
                with tracer.span(f"bench.{wl.name}"):
                    out = wl.process(item)
        except Exception:  # an item that raises is a failure, never a skip
            out = traceback.format_exc()
        raw.append(clock() - t0)
        outs.append(out)
    sampler.before(len(wl.items), force=True)
    factors = sampler.factors(len(raw))
    result = Pass(raw, [t * f for t, f in zip(raw, factors)], statistics.median(factors))
    for item, out in zip(wl.items, outs):
        if isinstance(out, str):
            digest, rounds, error = hashlib.sha256(out.encode()).digest(), 0, out.strip().splitlines()[-1]
        else:
            digest, rounds, error = wl.check(item, out)
        result.digests.append(digest)
        result.rounds.append(rounds)
        result.errors.append(error)
    return result


def measure(wl, seconds: float) -> list[Pass]:
    """Whole passes until the one that ends closest to ``seconds``."""
    passes = []
    elapsed = 0.0
    while True:
        p = run_pass(wl)
        passes.append(p)
        elapsed += p.seconds
        if elapsed + p.seconds / 2 >= seconds:
            return passes


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond): the highest listed percentile with
    at least ten samples above it, nearest-rank; the median when none has."""
    ordered = sorted(samples)
    count = len(ordered)
    for q in TAIL_PERCENTILES:
        rank = math.ceil(q / 100.0 * count)
        if count - rank >= TAIL_MIN_BEYOND:
            return q, ordered[rank - 1], count - rank
    rank = math.ceil(count / 2)
    return 50.0, ordered[rank - 1], count - rank


def failures(passes: list[Pass]) -> list[str]:
    """Item errors, plus items whose result differs from the first pass."""
    out = []
    first = passes[0]
    for k, p in enumerate(passes):
        for i, (digest, error) in enumerate(zip(p.digests, p.errors)):
            if error is not None:
                out.append(f"pass {k} item {i}: {error}")
            elif digest != first.digests[i] or p.rounds[i] != first.rounds[i]:
                out.append(f"pass {k} item {i}: result differs from pass 0")
    return out


def end_to_end(wl, passes: list[Pass], setup: list[float], setup_raw: list[float]) -> tuple[dict, dict]:
    """(metrics for the result line, the full table) of an untraced run.

    Times are scaled to the nominal host speed; throughputs are medians over
    passes, so one slow stretch of the host moves them less than a total.
    """
    samples = [s for p in passes for s in p.samples]
    attempted = len(samples)
    failed = len(failures(passes))
    q, tail_value, beyond = tail(samples)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = statistics.median(setup)
    items_per_s = statistics.median(len(p.samples) / p.seconds for p in passes)
    rounds_per_s = statistics.median(sum(p.rounds) / p.seconds for p in passes)
    snapshots = isinstance(wl, SnapshotWorkload)
    # Latency percentiles stay in the table: on sync-large they are the
    # median of seven runs of four sizes and spread by over 0.2 across seeds.
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (items_per_s if snapshots else rounds_per_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    table = {"setup_s": (setup_s, "s")}
    if snapshots:
        n160 = [s for p in passes for s, snap in zip(p.samples, wl.items) if snap.n == 160]
        table.update(
            {
                "snapshots_per_s": (items_per_s, "1/s"),
                "snapshot_ms.p50": (1000.0 * statistics.median(samples), "ms"),
                "snapshot_ms.tail": (1000.0 * tail_value, "ms"),
                "snapshot_ms.n160.p50": (1000.0 * statistics.median(n160), "ms"),
            }
        )
    else:
        table.update(
            {
                "rounds_per_s": (rounds_per_s, "1/s"),
                "runs_per_s": (items_per_s, "1/s"),
                "run_s.p50": (statistics.median(samples), "s"),
                "run_s.tail": (tail_value, "s"),
                "rounds_per_run": (sum(sum(p.rounds) for p in passes) / attempted, "rounds"),
            }
        )
    raw_seconds = [sum(p.raw) for p in passes]
    table.update(
        {
            "tail_percentile": (q, "%"),
            "tail_samples_beyond": (beyond, "count"),
            "samples": (attempted, "count"),
            "passes": (len(passes), "count"),
            "fail_ratio": (failed / attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "host_speed": (statistics.median(p.host_speed for p in passes), "ratio"),
            "unscaled.setup_s": (statistics.median(setup_raw), "s"),
            "unscaled.items_per_s": (statistics.median(len(p.raw) / r for p, r in zip(passes, raw_seconds)), "1/s"),
        }
    )
    if not snapshots:
        unscaled = statistics.median(sum(p.rounds) / r for p, r in zip(passes, raw_seconds))
        table["unscaled.rounds_per_s"] = (unscaled, "1/s")
    return metrics, table


def per_item_kind(wl, passes: list[Pass]) -> dict:
    """Median time of each kind of item: class and n, or run label."""
    groups: dict[str, list[float]] = {}
    for p in passes:
        for item, s in zip(wl.items, p.samples):
            key = f"{item.tag}.n{item.n}" if isinstance(wl, SnapshotWorkload) else item.label
            groups.setdefault(key, []).append(s)
    return {key: (1000.0 * statistics.median(v), "ms") for key, v in sorted(groups.items())}


def per_layer(wl, tracer: tracing.Tracer, untraced: Pass, traced: Pass) -> tuple[dict, dict]:
    """(metrics for the result line, the full table) of a traced pass."""
    rows = tracing.aggregate(tracer)
    rounds = sum(traced.rounds)

    def row(name):
        return rows.get(name, {"calls": 0, "incl_ns": 0, "self_ns": 0})

    def ms(ns):
        return ns / 1e6

    def ratio(a, b):
        return a / b if b else 0.0

    by_tag: dict[str, list[int]] = {}
    by_n: dict[int, list[int]] = {}
    detect_hits = sidesteps = m_rules = 0
    trace_bytes = 0
    for sid, value in tracer.attrs.items():
        name = tracer.names[tracer.name[sid]]
        dur = tracer.end[sid] - tracer.start[sid]
        if name == "configuration.classify":
            tag, n = value
            by_tag.setdefault(tag, []).append(dur)
            by_n.setdefault(n, []).append(dur)
        elif name == "symmetry.detect_quasi_regular":
            detect_hits += bool(value)
        elif name == "gathering.compute":
            sidesteps += value == "M_sidestep"
            m_rules += value in ("M_direct", "M_sidestep")
        elif name == "simulator.trace_lines":
            trace_bytes += value

    classify = row("configuration.classify")
    detect = row("symmetry.detect_quasi_regular")
    compute = row("gathering.compute")
    clusters_in_detect = tracing.calls_under(tracer, "symmetry.circular_clusters", "symmetry.detect_quasi_regular")
    overhead = traced.seconds / untraced.seconds

    metrics = {
        "configuration.classify.calls": (classify["calls"], "count"),
        "configuration.classify.self_ms": (ms(classify["self_ns"]), "ms"),
        "configuration.classify.ms_per_call": (ms(ratio(classify["incl_ns"], classify["calls"])), "ms"),
    }
    for tag in ("A", "M", "QR"):
        durs = by_tag.get(tag, [])
        metrics[f"configuration.classify.ms_per_call.{tag}"] = (ms(ratio(sum(durs), len(durs))), "ms")
    for name in ("configuration.Configuration.locations", "configuration.safe_points"):
        metrics[f"{name}.calls"] = (row(name)["calls"], "count")
        metrics[f"{name}.self_ms"] = (ms(row(name)["self_ns"]), "ms")
    metrics.update(
        {
            "symmetry.detect_quasi_regular.calls": (detect["calls"], "count"),
            "symmetry.detect_quasi_regular.self_ms": (ms(detect["self_ns"]), "ms"),
            "symmetry.detect_quasi_regular.hit_ratio": (ratio(detect_hits, detect["calls"]), "ratio"),
            "symmetry.circular_clusters.calls_per_detect": (ratio(clusters_in_detect, detect["calls"]), "count"),
            "symmetry.circular_clusters.self_ms": (ms(row("symmetry.circular_clusters")["self_ns"]), "ms"),
        }
    )
    for name in ("symmetry.weber_numeric", "symmetry.regularity_at", "symmetry.string_of_angles"):
        metrics[f"{name}.calls"] = (row(name)["calls"], "count")
        metrics[f"{name}.self_ms"] = (ms(row(name)["self_ns"]), "ms")
    metrics.update(
        {
            "symmetry.successor.calls": (row("symmetry.successor")["calls"], "count"),
            "gathering.compute.calls": (compute["calls"], "count"),
            "gathering.compute.self_ms": (ms(compute["self_ns"]), "ms"),
            "gathering.compute.sidestep_ratio": (ratio(sidesteps, m_rules), "ratio"),
            "simulator.step.calls": (row("simulator.step")["calls"], "count"),
            "trace.overhead_ratio": (overhead, "ratio"),
        }
    )

    table = dict(metrics)
    for tag, durs in sorted(by_tag.items()):
        table[f"configuration.classify.calls.{tag}"] = (len(durs), "count")
    for n, durs in sorted(by_n.items()):
        table[f"configuration.classify.ms_per_call.n{n}"] = (ms(sum(durs) / len(durs)), "ms")
    table.update(
        {
            "configuration.classify.calls_per_round": (ratio(classify["calls"], rounds), "count"),
            "symmetry.successor.self_ms": (ms(row("symmetry.successor")["self_ns"]), "ms"),
            "simulator.step.self_ms": (ms(row("simulator.step")["self_ns"]), "ms"),
            "simulator.check_transition.calls": (row("simulator.check_transition")["calls"], "count"),
            "simulator.check_transition.self_ms": (ms(row("simulator.check_transition")["self_ns"]), "ms"),
            "simulator.trace_lines.ms_per_round": (ms(ratio(row("simulator.trace_lines")["incl_ns"], rounds)), "ms"),
            "simulator.trace_lines.bytes_per_round": (ratio(trace_bytes, rounds), "B"),
            "rounds": (rounds, "count"),
            "trace.untraced_s": (untraced.seconds, "s"),
            "trace.traced_s": (traced.seconds, "s"),
            "host_speed": (statistics.median([untraced.host_speed, traced.host_speed]), "ratio"),
            "trace.spans": (len(tracer.name), "count"),
        }
    )
    for name, r in sorted(rows.items()):
        if not r["calls"]:
            continue
        table[f"{name}.calls"] = (r["calls"], "count")
        table[f"{name}.ms"] = (ms(r["incl_ns"]), "ms")
        table[f"{name}.self_ms"] = (ms(r["self_ns"]), "ms")
    return metrics, table


# --- reporting --------------------------------------------------------------------------


def machine() -> dict:
    uname = platform.uname()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "system": f"{uname.system} {uname.release} {uname.machine}",
        "commit": git_commit(),
        "src_sha256": source_digest(),
    }


def git_commit() -> str:
    """HEAD of the checkout from .git, read directly; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-256 over the paths and bytes of src/, which names the code measured
    also in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def print_table(title: str, table: dict) -> None:
    print(f"# {title}")
    width = max(len(k) for k in table)
    for key, (value, unit) in table.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {key:<{width}}  {shown:>14}  {unit}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    info = machine()
    setup_raw = []
    sampler = hostspeed.Sampler()
    for rep in range(SETUP_REPEATS):
        sampler.before(rep, force=True)
        t0 = time.perf_counter()
        wl = WORKLOADS[name](import_fresh(), seed)
        wl.warm_up()
        setup_raw.append(time.perf_counter() - t0)
    sampler.before(SETUP_REPEATS, force=True)
    setup = [t * f for t, f in zip(setup_raw, sampler.factors(SETUP_REPEATS))]

    record = {"workload": name, "why": wl.why, "seed": seed, "seconds": seconds, "trace": int(trace), "machine": info}
    print(f"# {name} seed={seed} trace={int(trace)} items/pass={len(wl.items)} why: {wl.why}")
    print(f"# machine: {json.dumps(info)}")
    if not trace:
        passes = measure(wl, seconds)
        metrics, table = end_to_end(wl, passes, setup, setup_raw)
        problems = failures(passes)
        attempted = sum(len(p.samples) for p in passes)
        record["digest"] = passes[0].digest
        table_kinds = per_item_kind(wl, passes)
        print_table("end-to-end", table)
        print_table("median per item kind", table_kinds)
        record["per_item_kind"] = table_kinds
    else:
        problems = [f"span accounting self-test: {f}" for f in tracing.self_test()]
        untraced = run_pass(wl)
        tracer = tracing.Tracer()
        record["wrapped"] = tracer.install()
        try:
            traced = run_pass(wl, tracer)
        finally:
            tracer.uninstall()
        # every item must give the same digest and round count traced and untraced
        problems += failures([untraced, traced])
        attempted = len(untraced.samples) + len(traced.samples)
        metrics, table = per_layer(wl, tracer, untraced, traced)
        record["digest"] = untraced.digest
        record["traced_digest"] = traced.digest
        record["spans_file"] = str(tracer.write(OUT_DIR, name).relative_to(ROOT))
        print_table("per-layer (one traced pass)", table)
    print(f"# trace digest (sha256 of per-item digests): {record['digest']}")
    for problem in problems[:20]:
        print(f"# FAIL {problem}")
    record["table"] = table
    record["problems"] = problems
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": min(len(problems), attempted),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1, default=str))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check the span accounting and exit")
    args = parser.parse_args(argv)
    if args.self_test:
        problems = tracing.self_test()
        print("span accounting self-test:", "FAIL " + "; ".join(problems) if problems else "PASS")
        return 1 if problems else 0
    if args.workload is None:
        parser.error("--workload is required")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        import_fresh()
    except MissingProgram as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for name in names:
        print(json.dumps(run_workload(name, args.seed, args.seconds, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
