"""Outside-in tracing of the rvfmc layers.

The tracer replaces module attributes with timing wrappers at the place the
caller looks them up, e.g. ``sys.modules["rvfmc.explore"].verify_sc``, and
puts every original back on exit.  ``sys.modules`` is used because the
package attribute ``rvfmc.explore`` is the function, not the module.  Nothing
inside the package is edited.

Each wrapped call records a span: name, start, end and the enclosing span.
Spans are kept in flat arrays, which the garbage collector does not scan, and
are reduced to per-layer numbers after a pass.  A span's self time is its
duration minus the durations of the spans directly inside it, so the self
times of one pass sum to the durations of its root spans (``trace.wall_s``).
"""

from __future__ import annotations

import json
import sys
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


def _count_replay_events(counts, args, result):
    counts["program.replay.events"] += len(args[1])


def _count_closure(counts, args, result):
    counts["vsc.closure.rejects"] += result is None


def _count_search(counts, args, result):
    counts["vsc.verify_sc.realizable"] += result.witness is not None
    counts["vsc.witness_states"] += result.states_processed


def _count_explore(counts, args, result):
    counts["explore.leaves"] += result.leaf_count


def _count_census(counts, args, result):
    counts["oracle.schedules"] += result.maximal_traces


# (module, attribute, span name, counter hook).  The entry points the
# benchmark itself calls are patched on the package; the rest where
# rvfmc.explore and rvfmc.vsc look them up.
PATCHES = (
    ("rvfmc", "parse_program", "program.parse", None),
    ("rvfmc", "explore", "explore", _count_explore),
    ("rvfmc", "count_classes", "oracle.count_classes", _count_census),
    ("rvfmc.explore", "extend_nonreads", "explore.nonreads", None),
    ("rvfmc.explore", "viable_sources", "explore.sources", None),
    ("rvfmc.explore", "group_by_value", "explore.sources", None),
    ("rvfmc.explore", "extend", "program.extend", None),
    ("rvfmc.explore", "replay", "program.replay", _count_replay_events),
    ("rvfmc.explore", "rvf_key", "semantics.rvf_key", None),
    ("rvfmc.explore", "VscInstance", "vsc.instance", None),
    ("rvfmc.explore", "verify_sc", "vsc.search", _count_search),
    ("rvfmc.vsc", "closure", "vsc.closure", _count_closure),
)
SPAN_NAMES = tuple(dict.fromkeys(p[2] for p in PATCHES))
COUNTERS = (
    "program.replay.events",
    "vsc.closure.rejects",
    "vsc.verify_sc.realizable",
    "vsc.witness_states",
    "explore.leaves",
    "oracle.schedules",
)


class Tracer:
    def __init__(self):
        self._columns = (array("b"), array("l"), array("d"), array("d"))
        self._counts = dict.fromkeys(COUNTERS, 0)
        self._stack = [-1]

    def wrap(self, name: str, fn, hook=None):
        name_id = SPAN_NAMES.index(name)
        names, parents, starts, ends = self._columns
        counts, stack = self._counts, self._stack

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Patch every name in PATCHES for the duration of the block."""
        originals = []
        try:
            for module_name, attr, name, hook in PATCHES:
                module = sys.modules[module_name]
                original = getattr(module, attr)
                originals.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, hook))
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def take(self) -> "Recording":
        """Hand over the spans and counts recorded so far and start afresh.

        The columns are emptied in place, because the wrappers hold them.
        """
        if self._stack != [-1]:
            raise RuntimeError("spans taken while a traced call is open")
        rec = Recording(*(array(c.typecode, c) for c in self._columns), dict(self._counts))
        for column in self._columns:
            del column[:]
        self._counts.update(dict.fromkeys(COUNTERS, 0))
        return rec


@dataclass
class Recording:
    names: array
    parents: array
    starts: array
    ends: array
    counts: dict

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; plus wall and counts."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        inner = [0.0] * n
        wall = 0.0
        for i in range(n):
            p = self.parents[i]
            if p < 0:
                wall += dur[i]
            else:
                inner[p] += dur[i]
        spans = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        for i in range(n):
            s = spans[SPAN_NAMES[self.names[i]]]
            s["calls"] += 1
            s["total_s"] += dur[i]
            s["self_s"] += dur[i] - inner[i]
        return {"wall_s": wall, "spans": spans, "counts": dict(self.counts)}

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent index."""
        with open(path, "w") as f:
            for i in range(len(self.names)):
                row = [SPAN_NAMES[self.names[i]], self.starts[i], self.ends[i], self.parents[i]]
                f.write(json.dumps(row) + "\n")


def layer_metrics(summary: dict, parse_s: float) -> dict:
    """The per-layer metrics of one traced pass, as ``name -> value``, given
    the parse time of the set-up before it."""
    spans, counts = summary["spans"], summary["counts"]

    def self_s(name):
        return spans[name]["self_s"]

    def calls(name):
        return spans[name]["calls"]

    solver_calls = calls("vsc.search")
    realizable = counts["vsc.verify_sc.realizable"]
    nodes = calls("explore.nonreads")
    # Every node but an explore root is entered through a witness that was
    # either found directly or returned by a realizable solver call.
    direct = nodes - calls("explore") - realizable
    schedules = counts["oracle.schedules"]
    return {
        "program.parse_s": parse_s,
        "program.extend.calls": calls("program.extend"),
        "program.extend.self_s": self_s("program.extend"),
        "program.replay.calls": calls("program.replay"),
        "program.replay.events": counts["program.replay.events"],
        "program.replay.self_s": self_s("program.replay"),
        "semantics.rvf_key.calls": calls("semantics.rvf_key"),
        "semantics.rvf_key.self_s": self_s("semantics.rvf_key"),
        "vsc.instance.self_s": self_s("vsc.instance"),
        "vsc.closure.calls": calls("vsc.closure"),
        "vsc.closure.rejects": counts["vsc.closure.rejects"],
        "vsc.closure.self_s": self_s("vsc.closure"),
        "vsc.verify_sc.calls": solver_calls,
        "vsc.verify_sc.realizable": realizable,
        "vsc.witness_states": counts["vsc.witness_states"],
        "vsc.search.self_s": self_s("vsc.search"),
        "vsc.useful_frac": realizable / solver_calls if solver_calls else 0.0,
        "explore.nodes": nodes,
        "explore.leaves": counts["explore.leaves"],
        "explore.direct_witness": direct,
        "explore.direct_frac": direct / (direct + solver_calls) if direct + solver_calls else 0.0,
        "explore.nonreads.self_s": self_s("explore.nonreads"),
        "explore.sources.self_s": self_s("explore.sources"),
        "explore.self_s": self_s("explore"),
        "oracle.count_classes.self_s": self_s("oracle.count_classes"),
        "oracle.schedules": schedules,
        "oracle.us_per_schedule": self_s("oracle.count_classes") / schedules * 1e6 if schedules else 0.0,
        "trace.wall_s": summary["wall_s"],
    }
