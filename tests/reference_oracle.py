"""Test-only oracles: trace keys from their definitions, a materializing
census, and brute-force realizability.

``reference_rvf_key`` builds the causal order as explicit pairs, the closure
of program order and reads-from edges in ``reference_closure._Order``, and
restricts it to reads; the tests check ``rvfmc.rvf_key`` against its
``encode_rvf_key`` form, and ``read_pairs`` decodes the read order of an
``rvfmc.rvf_key`` back into pairs.
``_maximal`` drives one trace through every schedule, with no reduction,
and ``iter_maximal_traces`` yields every maximal trace as a frozen
``Snapshot``; ``replay_leaves`` turns an exploration report's schedules into
the same.  ``census`` keys materialized traces, so it checks
``rvfmc.count_classes``, which steps one schedule per Mazurkiewicz class.
``brute_force_vsc`` enumerates every linearization, so it checks
``rvfmc.verify_sc``.  ``scan_indexes`` and
``scan_viable_sources`` scan every event of a trace, so they check the
indexes that ``extend`` and ``undo`` keep and the explorer's sources.  All
of it is slow but direct, which is what a reference should be.
``recorded_runs`` keeps the first trace of each run that the explorer and
the census start, so that tests can read a run's state tables after the
call, and ``interned_states`` counts the states in them.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Iterable, Iterator, Optional

from rvfmc.oracle import BudgetExceeded
from rvfmc.program import Event, EventId, Program, Trace, empty_trace, extend, replay
from rvfmc.vsc import VscInstance
from reference_closure import _Order


@dataclass(frozen=True)
class Snapshot:
    """Immutable copy of a trace: events plus values, violations and deadlock."""

    program: Program
    events: tuple[Event, ...]
    values: dict[EventId, int]
    violations: frozenset[str]
    deadlocked: bool


def snapshot(trace: Trace) -> Snapshot:
    violations = frozenset(trace.violations)
    return Snapshot(trace.program, tuple(trace.events), dict(trace.values), violations, trace.deadlocked)


def replay_leaves(program: Program, report) -> list[Snapshot]:
    """The leaves of an exploration report, each replayed from its schedule."""
    return [snapshot(replay(program, schedule)) for schedule in report.schedules]


def _maximal(
    trace: Trace,
    budget: int,
    on_extend: Optional[Callable[[Event], None]] = None,
    on_undo: Optional[Callable[[Event], None]] = None,
) -> Iterator[Trace]:
    """Drive ``trace`` depth-first through every schedule, in enabled order,
    yielding it each time it is maximal; it ends as it started.

    ``on_extend(event)`` runs after each step and ``on_undo(event)`` after
    its undo.  Every step spends one unit of ``budget``.
    """
    frames = [iter(trace.enabled)]
    if trace.maximal:
        yield trace
    while frames:
        for e in frames[-1]:
            budget -= 1
            if budget < 0:
                raise BudgetExceeded("schedule budget exhausted")
            extend(trace, e)
            if on_extend is not None:
                on_extend(e)
            enabled = trace.enabled
            if enabled:
                frames.append(iter(enabled))
                break
            yield trace
            trace.undo()
            if on_undo is not None:
                on_undo(e)
        else:
            frames.pop()
            if frames:
                e = trace.undo()
                if on_undo is not None:
                    on_undo(e)


def iter_maximal_traces(program: Program, budget: int = 10_000_000) -> Iterator[Snapshot]:
    """Yield every maximal trace reachable by any scheduler, in DFS order."""
    for trace in _maximal(empty_trace(program), budget):
        yield snapshot(trace)


def enumerate_maximal_traces(program: Program, budget: int = 10_000_000) -> list[Snapshot]:
    return list(iter_maximal_traces(program, budget))


# ---------------------------------------------------------------------------
# Trace indexes and viable sources by scanning every event
# ---------------------------------------------------------------------------


@contextmanager
def recorded_runs() -> Iterator[list[Trace]]:
    """Within the block, collect the first trace of every run that
    ``explore`` and ``count_classes`` start."""
    runs: list[Trace] = []

    def recording(program: Program, like: Optional[Trace] = None) -> Trace:
        trace = empty_trace(program, like)
        if like is None:
            runs.append(trace)
        return trace

    modules = [sys.modules["rvfmc.explore"], sys.modules["rvfmc.oracle"]]
    for module in modules:
        module.empty_trace = recording
    try:
        yield runs
    finally:
        for module in modules:
            module.empty_trace = empty_trace


def interned_states(trace: Trace) -> int:
    """Distinct state objects that the first states of ``trace``'s run
    reach through the successor tables."""
    seen = set()
    for start, _ in trace._start:
        todo = [start]
        while todo:
            state = todo.pop()
            if id(state) not in seen:
                seen.add(id(state))
                todo.extend(succ for succ, _ in state.succ.values())
    return len(seen)


def scan_indexes(trace) -> tuple[dict[str, list[Event]], list[list[Event]]]:
    """``Trace.writes`` and ``Trace.chains`` from one scan of the events."""
    writes: dict[str, list[Event]] = {v: [] for v in trace.program.globals}
    chains: list[list[Event]] = [[] for _ in trace.program.threads]
    for e in trace.events:
        chains[e.thread - 1].append(e)
        if e.kind == "W":
            writes[e.var].append(e)
    return writes, chains


def scan_viable_sources(trace, read: Event, cmap) -> list[Event]:
    """``explore.viable_sources`` from a scan of every event of the trace."""
    sources = [trace.program.init_event(read.var)]
    sources.extend(e for e in trace.events if e.kind == "W" and e.var == read.var)
    bounds = cmap.get(read.eid)
    if bounds:
        sources = [w for w in sources if w.index > bounds.get(w.thread, 0)]
    return sources


# ---------------------------------------------------------------------------
# Reads-from, the causal order and the equivalence keys
# ---------------------------------------------------------------------------


def reads_from(run) -> dict[Event, Event]:
    """Map each read to the latest earlier conflicting write (initial write if none)."""
    active: dict[str, Event] = {}
    rf: dict[Event, Event] = {}
    for e in run.events:
        if e.kind == "W":
            active[e.var] = e
        else:
            rf[e] = active.get(e.var) or run.program.init_event(e.var)
    return rf


def causal_order(run) -> _Order:
    """The transitive closure of program order and reads-from edges.  Initial
    writes precede everything implicitly and are not in the order."""
    order = _Order(e.eid for e in run.events)
    for e in run.events:
        if e.index > 1:
            order.add((e.thread, e.index - 1), e.eid)
    for r, w in reads_from(run).items():
        if w.thread != 0:
            order.add(w.eid, r.eid)
    return order


def _events_key(run) -> tuple[EventId, ...]:
    return tuple(sorted(e.eid for e in run.events))


def _reads_key(run) -> tuple[EventId, ...]:
    return tuple(sorted(e.eid for e in run.events if e.kind == "R"))


def reference_rvf_key(run):
    """The rvf key from the definition, with explicit pairs:
    ``("rvf", threads, events, values, reads, read_pairs)``, where
    ``threads`` is the program's thread count.  ``encode_rvf_key`` turns it
    into the form ``rvfmc.rvf_key`` computes."""
    ev = _events_key(run)
    reads = _reads_key(run)
    rs = set(reads)
    ro = sorted((a, b) for a, b in causal_order(run).pairs if a in rs and b in rs)
    return ("rvf", len(run.program.threads), ev, tuple(run.values[eid] for eid in ev), reads, tuple(ro))


def read_bits(reads: Iterable[EventId], k: int) -> dict[EventId, int]:
    """The mask bit of each read, of a program with ``k`` threads: read j
    (from 0) of thread t is bit j*k + t - 1."""
    return {r: j * k + t - 1 for t, group in groupby(reads, key=lambda r: r[0]) for j, r in enumerate(group)}


def encode_rvf_key(key):
    """The ``("rvf", flat, masks)`` of a reference key: the event count of
    each thread, then the values in (thread, index) order; per read, in the
    same order, the mask of the reads before it."""
    _, k, ev, vals, reads, ro = key
    counts = [0] * k
    for t, _ in ev:
        counts[t - 1] += 1
    bit = read_bits(reads, k)
    at = {r: i for i, r in enumerate(reads)}
    masks = [0] * len(reads)
    for a, b in ro:
        masks[at[b]] |= 1 << bit[a]
    return ("rvf", (*counts, *vals), tuple(masks))


def read_pairs(key, run) -> tuple[tuple[EventId, EventId], ...]:
    """The sorted read pairs ``(a, b)``, ``a`` causally before ``b``, that
    the ``masks`` of ``rvfmc.rvf_key(run)`` hold."""
    reads = _reads_key(run)
    bit = read_bits(reads, len(run.program.threads))
    return tuple(sorted((a, b) for b, mask in zip(reads, key[2]) for a in reads if mask >> bit[a] & 1))


def rf_key(run):
    """Canonical key of the reads-from class of a trace."""
    rf = reads_from(run)
    pairs = tuple(sorted((r.eid, w.eid) for r, w in rf.items()))
    return ("rf", _events_key(run), pairs)


def maz_key(run):
    """Canonical key of the commutation class: orientation of every conflicting pair."""
    events = run.events
    oriented = []
    for i, a in enumerate(events):
        for b in events[i + 1 :]:
            if a.var == b.var and "W" in (a.kind, b.kind):
                oriented.append((a.eid, b.eid))
    return ("maz", _events_key(run), tuple(sorted(oriented)))


def format_key(key) -> str:
    """Stable one-line text form of any equivalence key, for golden files."""

    def fmt(x) -> str:
        if isinstance(x, tuple):
            if len(x) == 2 and all(isinstance(v, int) for v in x):
                return f"{x[0]}.{x[1]}"
            return "(" + ",".join(fmt(v) for v in x) + ")"
        return str(x)

    tag, *parts = key
    return tag + "|" + "|".join(fmt(p) for p in parts)


# ---------------------------------------------------------------------------
# Materializing census
# ---------------------------------------------------------------------------

_KEY_FN = {"rvf": reference_rvf_key, "rf": rf_key, "maz": maz_key}


@dataclass
class CensusResult:
    equivalence: str
    count: int
    representatives: dict


def census(traces: Iterable[Snapshot], equivalence: str) -> CensusResult:
    """Count distinct equivalence keys over the given traces."""
    key_fn = _KEY_FN[equivalence]
    reps: dict = {}
    for t in traces:
        k = key_fn(t)
        if k not in reps:
            reps[k] = t
    return CensusResult(equivalence, len(reps), reps)


# ---------------------------------------------------------------------------
# Brute-force realizability
# ---------------------------------------------------------------------------


def iter_vsc_witnesses(inst: VscInstance) -> Iterator[tuple[Event, ...]]:
    """All witnesses of the instance, by plain enumeration of program-order
    linearizations with reads-from pruning."""
    chains = [inst.by_thread[t] for t in inst.threads]
    counts = [0] * len(chains)
    active = {v: inst.init_eid(v) for v in inst.variables}
    seq: list[Event] = []
    n = len(inst.events)

    def rec() -> Iterator[tuple[Event, ...]]:
        if len(seq) == n:
            yield tuple(seq)
            return
        for i, chain in enumerate(chains):
            if counts[i] >= len(chain):
                continue
            e = chain[counts[i]]
            if e.kind == "R":
                if active[e.var] not in inst.good_writes[e.eid]:
                    continue
                counts[i] += 1
                seq.append(e)
                yield from rec()
                seq.pop()
                counts[i] -= 1
            else:
                old = active[e.var]
                active[e.var] = e.eid
                counts[i] += 1
                seq.append(e)
                yield from rec()
                seq.pop()
                counts[i] -= 1
                active[e.var] = old

    return rec()


def brute_force_vsc(inst: VscInstance, limit: int = 12) -> Optional[tuple[Event, ...]]:
    """First witness by exhaustive enumeration, or None; guarded to small instances."""
    if len(inst.events) > limit:
        raise ValueError(f"instance too large for brute force ({len(inst.events)} events)")
    return next(iter_vsc_witnesses(inst), None)
