"""Spans around psimoment's public functions, recorded from outside the package.

The tracer swaps each public entry point for a wrapper that records a span
(name, layer, start, end, parent) and a few counts, then restores the
originals.  Nothing inside ``src/`` is edited: a function is replaced in
every ``psimoment`` module namespace that holds it, so calls through
``from .x import f`` bindings are caught too.  Spans stay in memory and are
written out once the traced run ends.

Layers are named after the package's modules.  A layer's self time is its
spans' durations minus the part covered by child spans; the root span's self
time is the traced run's time that no layer covers.  So the layer self times
plus that remainder add up to the traced wall time by construction.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("sieve", "fixed", "scaled", "runner", "checkpoint",
          "predictors", "report", "cli")


class Span:
    __slots__ = ("id", "name", "layer", "parent", "start", "end", "attrs")

    def __init__(self, id, name, layer, parent):
        self.id = id
        self.name = name
        self.layer = layer
        self.parent = parent
        self.attrs = {}
        self.start = time.perf_counter()
        self.end = None

    def as_dict(self):
        return {"id": self.id, "name": self.name, "layer": self.layer,
                "parent": None if self.parent is None else self.parent.id,
                "start": self.start, "end": self.end, **self.attrs}


def _returned_count(attrs, args, kwargs, result):
    attrs["prime_powers"] = len(result[0])


def _segment_counts(attrs, args, kwargs, result):
    seg = args[0] if args else kwargs["seg"]
    attrs["lo"], attrs["hi"] = seg.lo, seg.hi
    attrs["prime_powers"] = len(result[0])


def _anchor_count(attrs, args, kwargs, result):
    attrs["anchors"] = args[0] if args else kwargs["X"]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name, layer):
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), name, layer, parent)
        self.spans.append(sp)
        self._stack.append(sp)
        return sp

    def _close(self, sp):
        sp.end = time.perf_counter()
        if self._stack.pop() is not sp:
            raise RuntimeError(f"span {sp.name} closed out of order")

    def wrap(self, name, layer, fn, count=None):
        def traced(*args, **kwargs):
            sp = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(sp.attrs, args, kwargs, result)
                return result
            finally:
                self._close(sp)

        traced.__wrapped__ = fn
        return traced

    def _wrap_run_tasks(self, fn):
        # Each task's worker call becomes a segment span of the calling layer.
        def traced(*args, **kwargs):
            caller = self._stack[-1].parent  # the run_tasks span is on top
            layer = caller.layer if caller is not None else "runner"
            if "worker" in kwargs:
                kwargs["worker"] = self.wrap(f"{layer}.segment", layer, kwargs["worker"])
            else:
                args = (self.wrap(f"{layer}.segment", layer, args[0]),) + args[1:]
            return fn(*args, **kwargs)

        return self.wrap("runner.run_tasks", "runner", traced)

    def _replace(self, orig, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "psimoment" or mod_name.startswith("psimoment."):
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def install(self, pm):
        """Wrap the public entry points of every layer in package pm."""
        sieve, fixed, scaled = pm.sieve, pm.fixed, pm.scaled
        cls = sieve.MangoldtSieve
        self._undo.append((cls, "events", cls.events))
        cls.events = self.wrap("sieve.events", "sieve", cls.events, _returned_count)
        self._replace(sieve.lambda_segment, self.wrap(
            "sieve.lambda_segment", "sieve", sieve.lambda_segment, _segment_counts))
        self._replace(fixed.moment_sum, self.wrap(
            "fixed.moment_sum", "fixed", fixed.moment_sum, _anchor_count))
        self._replace(fixed.moment_integral_fixed, self.wrap(
            "fixed.moment_integral_fixed", "fixed", fixed.moment_integral_fixed))
        self._replace(scaled.moment_integral_scaled, self.wrap(
            "scaled.moment_integral_scaled", "scaled", scaled.moment_integral_scaled))
        self._replace(pm.runner.run_tasks, self._wrap_run_tasks(pm.runner.run_tasks))
        ck = pm.checkpoint.CheckpointWriter
        self._undo.append((ck, "append", ck.append))
        ck.append = self.wrap("checkpoint.append", "checkpoint", ck.append)
        self._replace(pm.checkpoint.load, self.wrap(
            "checkpoint.load", "checkpoint", pm.checkpoint.load))
        for name in ("fixed_main_term", "fixed_main_term_from_one",
                     "scaled_main_term", "cramer_variance"):
            fn = getattr(pm.predictors, name)
            self._replace(fn, self.wrap(f"predictors.{name}", "predictors", fn))
        for name in ("emit", "render_table"):
            fn = getattr(pm.report, name)
            self._replace(fn, self.wrap(f"report.{name}", "report", fn))
        self._replace(pm.cli.main, self.wrap("cli.main", "cli", pm.cli.main))

    def uninstall(self):
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump([sp.as_dict() for sp in self.spans], fh)
            fh.write("\n")


def _list_schedule(durations, workers):
    """Makespan of durations taken in order by the first free of n workers."""
    free = [0.0] * workers
    for d in durations:
        i = free.index(min(free))
        free[i] += d
    return max(free)


def layer_metrics(spans, wall_1w, wall_2w, workers=2):
    """Per-layer metrics of one traced run; spans[0] is the run's root span."""
    root = spans[0]
    covered = defaultdict(float)
    for sp in spans:
        if sp.parent is not None:
            covered[sp.parent.id] += sp.end - sp.start
    self_s = {sp.id: (sp.end - sp.start) - covered[sp.id] for sp in spans}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for sp in spans:
        if sp is not root:
            layer_self[sp.layer] += self_s[sp.id]

    # Entry calls into the sieve from another layer, and what they returned.
    sieve_entries = [sp for sp in spans
                     if sp.layer == "sieve" and sp.parent.layer != "sieve"]
    pp_to = defaultdict(int)
    for sp in sieve_entries:
        pp_to[sp.parent.layer] += sp.attrs["prime_powers"]
    sieved = sorted((sp.attrs["lo"], sp.attrs["hi"]) for sp in spans
                    if sp.name == "sieve.lambda_segment")
    ints = sum(hi - lo for lo, hi in sieved)
    distinct, reach = 0, None
    for lo, hi in sieved:
        if reach is not None and lo < reach:
            lo = reach
        if hi > lo:
            distinct += hi - lo
        reach = hi if reach is None else max(reach, hi)

    segments = {layer: [sp.end - sp.start for sp in spans
                        if sp.name == f"{layer}.segment"]
                for layer in ("fixed", "scaled")}
    makespan = 0.0
    for rt in (sp for sp in spans if sp.name == "runner.run_tasks"):
        makespan += _list_schedule(
            [sp.end - sp.start for sp in spans
             if sp.parent is rt and sp.name.endswith(".segment")], workers)
    # No workload calls both fixed functions, so the fixed layer's self time
    # belongs to the one that ran.  A segment's grandparent is the call that
    # swept it; a resume from a completed checkpoint sweeps nothing.
    called = {sp.name for sp in spans}
    swept = {sp.parent.parent.id for sp in spans if sp.name == "fixed.segment"}
    anchors = sum(sp.attrs["anchors"] for sp in spans
                  if sp.name == "fixed.moment_sum" and sp.id in swept)

    def per(num, den, scale=1e9):
        return num / den * scale if den else 0.0

    def seg_stats(layer):
        d = segments[layer]
        return (statistics.median(d) if d else 0.0), (max(d) if d else 0.0)

    fixed_p50, fixed_max = seg_stats("fixed")
    scaled_p50, scaled_max = seg_stats("scaled")
    sieve_self = layer_self["sieve"]
    wall = root.end - root.start
    ran_2w = wall_2w is not None
    ck_append = [sp for sp in spans if sp.name == "checkpoint.append"]
    ck_load = [sp for sp in spans if sp.name == "checkpoint.load"]
    m = {
        "sieve.self_s": sieve_self,
        "sieve.calls": len(sieve_entries),
        "sieve.ints": ints,
        "sieve.prime_powers": sum(sp.attrs["prime_powers"] for sp in spans
                                  if sp.name == "sieve.lambda_segment"),
        "sieve.ns_per_int": per(sieve_self, ints),
        "sieve.redundancy": per(ints, distinct, 1.0),
        "scaled.self_s": layer_self["scaled"],
        "scaled.segments": len(segments["scaled"]),
        "scaled.s_per_segment_p50": scaled_p50,
        "scaled.s_per_segment_max": scaled_max,
        "scaled.ns_per_pp": per(layer_self["scaled"], pp_to["scaled"]),
        "fixed.self_s": layer_self["fixed"],
        "fixed.segments": len(segments["fixed"]),
        "fixed.s_per_segment_p50": fixed_p50,
        "fixed.s_per_segment_max": fixed_max,
        "fixed.ns_per_anchor": per(layer_self["fixed"], anchors),
        "fixed.ns_per_pp": (per(layer_self["fixed"], pp_to["fixed"])
                            if "fixed.moment_integral_fixed" in called else 0.0),
        "runner.self_s": layer_self["runner"],
        "runner.speedup_2w": per(wall_1w, wall_2w, 1.0) if ran_2w else 0.0,
        "runner.makespan_gap_s": wall_2w - makespan if ran_2w else 0.0,
        "checkpoint.append_s": sum(self_s[sp.id] for sp in ck_append),
        "checkpoint.records": len(ck_append),
        "checkpoint.load_s": sum(self_s[sp.id] for sp in ck_load),
        "predictors.self_s": layer_self["predictors"],
        "report.self_s": layer_self["report"],
        "cli.self_s": layer_self["cli"],
        "trace.wall_s": wall,
        "trace.uncovered_s": self_s[root.id],
        "trace.overhead": per(wall, wall_1w, 1.0) - 1.0,
    }
    return m
