"""Span tracer installed around radrelax from outside the package.

``Tracer.install`` wraps every public function and every public method
of a public class defined in the layers ``specfile``, ``potentials``,
``envelope``, ``radial_solver``, ``verify``, ``disc2d`` and ``cli``.  A
function is replaced at every module attribute of the package that holds
it, so a name imported elsewhere (``cli`` imports ``solve_pipeline``) is
traced too.  Each call records one span: name, start, end and the
enclosing span.  Spans stay in memory until ``write``.

The tracer also keeps the counts that need a call's arguments or result
(descent iterations, the command of ``cli.main``).  For the two
functions whose memory grows with the grid it keeps the arguments of
their first calls; ``measure_peaks`` replays those calls under
tracemalloc after the traced phase, so no span time includes the cost
of tracemalloc.  The tracer's own cost is estimated from the span count
and the measured cost of one wrapper.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

LAYERS = ("specfile", "potentials", "envelope", "radial_solver", "verify",
          "disc2d", "cli")
MINIMIZE = "radial_solver.minimize_relaxed"
OBJECTIVE = "envelope.EnvelopeResult.deriv"
PEAK_TRACKED = ("radial_solver.monotone_rearrange", "verify.full_report")
PEAK_CALLS = 8  # calls of each PEAK_TRACKED function that measure_peaks replays


def _observe_minimize(tracer, idx, args, kwargs, result):
    tracer.minimize["calls"] += 1
    tracer.minimize["iterations"] += int(result.iterations)
    tracer.minimize["converged"] += int(bool(result.converged))


def _observe_main(tracer, idx, args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    argv = sys.argv[1:] if argv is None else argv
    tracer.commands[idx] = argv[0] if argv else "none"


_OBSERVERS = {MINIMIZE: _observe_minimize, "cli.main": _observe_main}


class Tracer:
    """Spans of one process, kept as parallel lists indexed by span."""

    def __init__(self):
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.outer = []  # no enclosing span of the same name
        self.stack = []
        self._depth = Counter()
        self.peak_bytes = {}
        self.peak_calls = {}  # name -> [(function, args, kwargs)]
        self.minimize = {"calls": 0, "iterations": 0, "converged": 0}
        self.commands = {}
        self._undo = []

    def _wrap(self, name, fn):
        names, starts, ends, parents, outer, stack, depth = (
            self.names, self.starts, self.ends, self.parents, self.outer,
            self.stack, self._depth)
        observe = _OBSERVERS.get(name)
        kept = (self.peak_calls.setdefault(name, []) if name in PEAK_TRACKED
                else None)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            outer.append(depth[name] == 0)
            depth[name] += 1
            stack.append(idx)
            if kept is not None and len(kept) < PEAK_CALLS:
                kept.append((fn, args, kwargs))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[name] -= 1
                starts[idx] = t0
                ends[idx] = t1
            if observe is not None:
                observe(self, idx, args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _replace(self, target, attr, value):
        self._undo.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def install(self):
        """Wrap the public callables of every layer; undo with uninstall."""
        mods = [importlib.import_module(f"radrelax.{layer}") for layer in LAYERS]
        package = [m for n, m in sorted(sys.modules.items())
                   if n == "radrelax" or n.startswith("radrelax.")]
        for layer, mod in zip(LAYERS, mods):
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(f"{layer}.{name}", obj)
                    for m in package:
                        for attr, val in list(vars(m).items()):
                            if val is obj:
                                self._replace(m, attr, wrapper)
                elif inspect.isclass(obj):
                    for attr, val in list(vars(obj).items()):
                        if attr.startswith("_"):
                            continue
                        span = f"{layer}.{name}.{attr}"
                        if inspect.isfunction(val):
                            self._replace(obj, attr, self._wrap(span, val))
                        elif isinstance(val, (classmethod, staticmethod)):
                            self._replace(obj, attr,
                                          type(val)(self._wrap(span, val.__func__)))

    def uninstall(self):
        while self._undo:
            target, attr, value = self._undo.pop()
            setattr(target, attr, value)

    def measure_peaks(self):
        """Replay the kept calls under tracemalloc; keep each name's largest peak.

        Call after ``uninstall``: the replay then records no spans, and no
        span time includes the cost of tracemalloc.
        """
        for name, calls in self.peak_calls.items():
            for fn, args, kwargs in calls:
                tracemalloc.start()
                try:
                    fn(*args, **kwargs)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                self.peak_bytes[name] = max(self.peak_bytes.get(name, 0), peak)
        self.peak_calls.clear()

    def summary(self) -> dict:
        """Totals over all spans; summaries of several processes merge."""
        n = len(self.names)
        names, parents, outer = self.names, self.parents, self.outer
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * n
        in_minimize = [False] * n
        # a parent is recorded before its children, so one forward pass
        # sees every parent complete
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
                in_minimize[i] = in_minimize[p] or names[p] == MINIMIZE
        time_s, self_s = defaultdict(float), defaultdict(float)
        cli_s = defaultdict(float)
        for i in range(n):
            if outer[i]:
                time_s[names[i]] += dur[i]
            self_s[names[i]] += dur[i] - child[i]
            if i in self.commands:
                cli_s[self.commands[i]] += dur[i]
        return {
            "time_s": dict(time_s), "self_s": dict(self_s), "cli_s": dict(cli_s),
            "calls": dict(Counter(names)),
            "calls_in_minimize": dict(Counter(
                names[i] for i in range(n) if in_minimize[i])),
            "minimize": dict(self.minimize),
            "peak_bytes": dict(self.peak_bytes),
            "spans": n,
        }

    def write(self, path, summary=None):
        """Write the spans and the summary as gzipped JSON.

        Span i has name ``names[name[i]]``, runs from ``start[i]`` to
        ``end[i]`` (perf_counter seconds) and has parent span ``parent[i]``
        (-1 at top level).
        """
        table = sorted(set(self.names))
        index = {name: k for k, name in enumerate(table)}
        doc = {"names": table,
               "spans": {"name": [index[name] for name in self.names],
                         "start": self.starts, "end": self.ends,
                         "parent": self.parents},
               "summary": summary if summary is not None else self.summary()}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh)


def wrapper_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one tracing wrapper adds to a call.

    Times a wrapped no-op against the bare one, fastest of ``repeats``
    loops each; the product with a span count estimates what tracing
    added to a run.
    """
    def noop():
        return None

    wrapped = Tracer()._wrap("noop", noop)
    best = {}
    for fn in (noop, wrapped) * repeats:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best[fn] = min(best.get(fn, float("inf")), time.perf_counter() - t0)
    return max(0.0, (best[wrapped] - best[noop]) / calls)


def read_summary(path) -> dict:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)["summary"]


def merge(summaries) -> dict:
    """Add times and counts; keep the largest memory peaks."""
    out = {"time_s": Counter(), "self_s": Counter(), "cli_s": Counter(),
           "calls": Counter(), "calls_in_minimize": Counter(),
           "minimize": Counter(), "peak_bytes": {}, "spans": 0}
    for s in summaries:
        for key in ("time_s", "self_s", "cli_s", "calls", "calls_in_minimize",
                    "minimize"):
            out[key].update(s[key])
        for name, peak in s["peak_bytes"].items():
            out["peak_bytes"][name] = max(out["peak_bytes"].get(name, 0), peak)
        out["spans"] += s["spans"]
    return out
