"""Span recording around the public functions of each gathersim layer.

The tracer wraps functions from outside the package: every module namespace
that binds a wrapped function gets the wrapper, so calls made through a
module attribute (``cfg.classify``) and names imported into another module
(``from .configuration import classify``) are both seen.  Spans are kept in
flat arrays while the workload runs and are only aggregated, and written
out, once it has finished.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from array import array
from functools import cached_property
from pathlib import Path

# Layers the benchmark drives, in dependency order.
LAYER_MODULES = ("geometry", "configuration", "symmetry", "gathering", "simulator")

# Constant-time point primitives are called millions of times per pass
# (``dist`` alone more than 5M times in the sweep); a span each would cost
# more than the work it measures, so their time stays in the caller's self
# time.  ``dumps_17g`` recurses once per JSON value and is covered by the
# ``trace_lines`` span around it.
UNWRAPPED = frozenset(
    {
        "geometry.dist",
        "geometry.points_coincide",
        "geometry.ccw_angle_of",
        "geometry.angle_cw",
        "geometry.wrap_near_zero",
        "geometry.rotate_cw",
        "geometry.on_open_segment",
        "geometry.on_half_line",
        "simulator.dumps_17g",
    }
)

# Per-call detail kept for the functions whose ratios the benchmark reports.
ANNOTATE = {
    "configuration.classify": lambda args, result: (result.tag, args[0].n),
    "symmetry.detect_quasi_regular": lambda args, result: result is not None,
    "gathering.compute": lambda args, result: result.rule,
    "simulator.trace_lines": lambda args, result: len(result),
}


class Tracer:
    """In-memory span store: one entry per wrapped call, in call order.

    Span ids are allocated when a call starts, so a span's id is larger than
    its parent's and siblings appear in start order.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.attrs: dict[int, object] = {}
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, qualname: str) -> int:
        nid = self._name_ids.get(qualname)
        if nid is None:
            nid = self._name_ids[qualname] = len(self.names)
            self.names.append(qualname)
        return nid

    def wrap(self, qualname: str, fn):
        nid = self.name_id(qualname)
        annotate = ANNOTATE.get(qualname)
        names, parent, start, end = self.name, self.parent, self.start, self.end
        attrs, stack, clock = self.attrs, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if annotate is not None:
                attrs[sid] = annotate(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, qualname: str):
        """Record one span around a block of the benchmark's own code."""
        sid = len(self.name)
        self.name.append(self.name_id(qualname))
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.end[sid] = time.perf_counter_ns()
            self._stack.pop()

    # --- patching -----------------------------------------------------------------

    def install(self, package: str = "gathersim") -> list[str]:
        """Wrap every public function of the layer modules; returns their names."""
        modules = {name: mod for name, mod in sys.modules.items() if name == package or name.startswith(package + ".")}
        wrapped = []
        for short in LAYER_MODULES:
            module = sys.modules[f"{package}.{short}"]
            for fname, fn in inspect.getmembers(module, inspect.isfunction):
                qualname = f"{short}.{fname}"
                if fname.startswith("_") or fn.__module__ != module.__name__ or qualname in UNWRAPPED:
                    continue
                traced = self.wrap(qualname, fn)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._restore.append((mod, attr, fn))
                            setattr(mod, attr, traced)
                wrapped.append(qualname)
            for cname, cls in inspect.getmembers(module, inspect.isclass):
                if cls.__module__ != module.__name__:
                    continue
                for pname, prop in list(vars(cls).items()):
                    if pname.startswith("_") or not isinstance(prop, cached_property):
                        continue
                    qualname = f"{short}.{cname}.{pname}"
                    traced_prop = cached_property(self.wrap(qualname, prop.func))
                    traced_prop.__set_name__(cls, pname)
                    self._restore.append((cls, pname, prop))
                    setattr(cls, pname, traced_prop)
                    wrapped.append(qualname)
        return wrapped

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # --- output -------------------------------------------------------------------

    def write(self, directory: Path, stem: str) -> Path:
        """Dump the raw spans: a JSON header plus four little-endian arrays."""
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{stem}.spans"
        header = {
            "names": self.names,
            "count": len(self.name),
            "arrays": ["name:i32", "parent:i32", "start_ns:i64", "end_ns:i64"],
        }
        with open(path, "wb") as out:
            out.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.parent, self.start, self.end):
                if sys.byteorder != "little":
                    arr = array(arr.typecode, arr)
                    arr.byteswap()
                arr.tofile(out)
        return path


def self_times(parent, start, end) -> list[int]:
    """Each span's duration minus the part of its interval that children cover.

    Children of one parent are merged as intervals, clipped to the parent, so
    overlapping or out-of-range children are not double counted.  Spans are
    visited in start order, which is id order for a recorded trace.
    """
    count = len(parent)
    order = range(count)
    if any(start[i] > start[i + 1] for i in range(count - 1)):
        order = sorted(range(count), key=start.__getitem__)
    covered = [0] * count
    reach = list(start)
    for s in order:
        p = parent[s]
        if p < 0:
            continue
        lo = max(start[s], reach[p])
        hi = min(end[s], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[s] - start[s] - covered[s] for s in range(count)]


def aggregate(tracer: Tracer) -> dict[str, dict]:
    """Per function: calls, inclusive ns and self ns."""
    selfs = self_times(tracer.parent, tracer.start, tracer.end)
    out = {name: {"calls": 0, "incl_ns": 0, "self_ns": 0} for name in tracer.names}
    names = tracer.names
    for s, nid in enumerate(tracer.name):
        row = out[names[nid]]
        row["calls"] += 1
        row["incl_ns"] += tracer.end[s] - tracer.start[s]
        row["self_ns"] += selfs[s]
    return out


def calls_under(tracer: Tracer, child: str, ancestor: str) -> int:
    """Number of ``child`` spans that have an ``ancestor`` span above them."""
    if child not in tracer._name_ids or ancestor not in tracer._name_ids:
        return 0
    cid, aid = tracer._name_ids[child], tracer._name_ids[ancestor]
    below = bytearray(len(tracer.name))
    total = 0
    for s, nid in enumerate(tracer.name):
        p = tracer.parent[s]
        if p >= 0 and (below[p] or tracer.name[p] == aid):
            below[s] = 1
            if nid == cid:
                total += 1
    return total


def self_test() -> list[str]:
    """Check the span accounting on a synthetic tree; returns the failures.

    root  [0, 100)
      a   [10, 40)     children b [12, 20) and c [18, 30): union covers 18
        b [12, 20)
        c [18, 30)     child d [25, 35) reaches past c's end: clipped to 5
          d [25, 35)
      e   [50, 60)     leaf
      f   [90, 120)    runs past the root's end: the root loses only 10
    """
    parent = [-1, 0, 1, 1, 3, 0, 0]
    start = [0, 10, 12, 18, 25, 50, 90]
    end = [100, 40, 20, 30, 35, 60, 120]
    want = [100 - (30 + 10 + 10), 30 - 18, 8, 12 - 5, 10, 10, 30]
    failures = []
    got = self_times(parent, start, end)
    if got != want:
        failures.append(f"self times {got} != {want}")
    # the same tree listed out of start order must account identically
    perm = [0, 5, 6, 1, 3, 2, 4]
    inv = {old: new for new, old in enumerate(perm)}
    shuffled = self_times(
        [inv[parent[o]] if parent[o] >= 0 else -1 for o in perm],
        [start[o] for o in perm],
        [end[o] for o in perm],
    )
    if [shuffled[inv[o]] for o in range(len(perm))] != want:
        failures.append("self times depend on the order spans are listed in")
    # a recorded trace: nested wrapped calls must nest as spans
    tracer = Tracer()
    inner = tracer.wrap("t.inner", lambda: time.sleep(0.002))

    def outer_body():
        inner()
        inner()

    outer = tracer.wrap("t.outer", outer_body)
    outer()
    rows = aggregate(tracer)
    if rows["t.inner"]["calls"] != 2 or list(tracer.parent) != [-1, 0, 0]:
        failures.append(f"recorded tree {list(tracer.parent)} with rows {rows}")
    elif rows["t.outer"]["self_ns"] != rows["t.outer"]["incl_ns"] - rows["t.inner"]["incl_ns"]:
        failures.append("outer self time is not its duration minus its children")
    if calls_under(tracer, "t.inner", "t.outer") != 2:
        failures.append("calls_under missed nested calls")
    return failures
