"""Ground-truth engines: exhaustive schedule enumeration and brute-force realizability.

Everything here is deliberately heuristic-free so it can stand as an
independent oracle for the explorer and the witness solver: the independence
comes from enumerating every schedule, not from a second interpreter.  The
depth-first search drives one ``program.Trace`` through ``extend`` and
``Trace.undo`` over an explicit stack, so full enumeration of six-figure
schedule spaces stays within desk-scale budgets and trace length is not
bounded by the recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator, Optional

from .program import Event, EventId, Execution, Program, Trace, empty_trace, extend
from .semantics import maz_key, rf_key, rvf_key
from .vsc import VscInstance


class BudgetExceeded(RuntimeError):
    """The schedule-step budget ran out before enumeration finished."""


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


def iter_maximal_traces(program: Program, budget: int = 10_000_000) -> Iterator[Execution]:
    """Yield every maximal trace reachable by any scheduler, in DFS order."""
    for trace in _maximal(empty_trace(program), budget):
        yield trace.freeze()


def enumerate_maximal_traces(program: Program, budget: int = 10_000_000) -> list[Execution]:
    return list(iter_maximal_traces(program, budget))


# ---------------------------------------------------------------------------
# Equivalence-class censuses
# ---------------------------------------------------------------------------

_KEY_FN = {"rvf": rvf_key, "rf": rf_key, "maz": maz_key}


@dataclass
class CensusResult:
    equivalence: str
    count: int
    representatives: dict


def census(traces: Iterable[Execution], equivalence: str) -> CensusResult:
    """Count distinct equivalence keys over the given traces."""
    key_fn = _KEY_FN[equivalence]
    reps: dict = {}
    for t in traces:
        k = key_fn(t)
        if k not in reps:
            reps[k] = t
    return CensusResult(equivalence, len(reps), reps)


@dataclass
class ClassCount:
    maximal_traces: int
    classes: dict[str, int]
    assertion_violations: list[str]
    deadlocks: int

    def csv_lines(self) -> list[str]:
        """``equivalence,count`` lines in a fixed order, for golden files."""
        return [f"{eq},{self.classes[eq]}" for eq in sorted(self.classes)]


def count_classes(
    program: Program, equivalences: Iterable[str] = ("rvf", "rf", "maz"), budget: int = 10_000_000
) -> ClassCount:
    """Streaming census over all maximal traces, without materializing them.

    Reads-from sources, per-variable write orders, and causal predecessor
    bitmasks are maintained incrementally along the DFS, so the per-trace
    cost stays linear in trace length.  Same answers as ``census`` over
    ``enumerate_maximal_traces``; that equality is a test obligation.
    """
    eqs = tuple(equivalences)
    want_rvf = "rvf" in eqs
    want_rf = "rf" in eqs or "maz" in eqs
    globs = program.globals

    sets: dict[str, set] = {eq: set() for eq in eqs}
    rf_set, maz_set = sets.get("rf"), sets.get("maz")
    violations: set[str] = set()
    total = deadlocks = 0

    # The rf and maz keys are flat tuples of ints: each event id gets a dense
    # code when the search first executes it, so the millions of keys a large
    # census holds carry no nested tuples.
    codes: dict[EventId, int] = {}
    init_of = {v: codes.setdefault((0, i + 1), i) for i, v in enumerate(globs)}

    # incremental per-prefix structures; the event-id set of a prefix is
    # exactly its per-thread counts vector.  Per thread, the code of each
    # read followed by the code of its source, in program order, so these
    # lists concatenated by thread are a canonical form of reads-from.
    sources: list[list[int]] = [[] for _ in program.threads]
    write_orders: list[list[int]] = [[] for _ in globs]  # codes; last is active
    writes_of = dict(zip(globs, write_orders))
    masks: list[int] = []  # causal predecessor bitmask per position
    # position of each event in the trace, by code; an undone event's entry
    # is only read again after the event runs again and overwrites it
    pos_of: dict[int, int] = {}

    def push(e: Event) -> None:
        eid = (e.thread, e.index)
        c = codes.get(eid)
        if c is None:
            c = codes[eid] = len(codes)
        writes = writes_of[e.var]
        if e.kind == "R":
            reads = sources[e.thread - 1]
            reads.append(c)
            reads.append(writes[-1] if writes else init_of[e.var])
        if want_rvf:
            pos = len(masks)
            m = 1 << pos
            if e.index > 1:  # after its program-order predecessor
                prev = pos_of[codes[(e.thread, e.index - 1)]]
                m |= masks[prev] | (1 << prev)
            if e.kind == "R" and writes:  # after the write it reads from
                src = pos_of[writes[-1]]
                m |= masks[src] | (1 << src)
            masks.append(m)
            pos_of[c] = pos
        if e.kind == "W":
            writes.append(c)

    def pop(e: Event) -> None:
        if e.kind == "W":
            writes_of[e.var].pop()
        else:
            del sources[e.thread - 1][-2:]
        if want_rvf:
            masks.pop()

    for trace in _maximal(empty_trace(program), budget, push, pop):
        total += 1
        deadlocks += trace.deadlocked
        violations.update(trace.violations)
        ev_key = trace.counts
        if want_rf:
            # ev_key has one entry per thread and the write lists one length
            # per variable, so each key splits back into its parts
            rfk = tuple(chain.from_iterable(sources))
            if rf_set is not None:
                rf_set.add((*ev_key, *rfk))
            if maz_set is not None:
                maz_set.add(
                    (*ev_key, len(rfk), *rfk, *map(len, write_orders), *chain.from_iterable(write_orders))
                )
        if want_rvf:
            vkey = tuple(v for _, v in sorted(trace.values.items()))
            # positions are indices into the trace, so this is in trace order
            rpos = [(i, (e.thread, e.index)) for i, e in enumerate(trace.events) if e.kind == "R"]
            ro = []
            for i in range(len(rpos)):
                pi, ei = rpos[i]
                for j in range(i + 1, len(rpos)):
                    pj, ej = rpos[j]
                    if masks[pj] >> pi & 1:
                        ro.append((ei, ej))
            sets["rvf"].add((ev_key, vkey, tuple(sorted(ro))))

    return ClassCount(total, {eq: len(sets[eq]) for eq in eqs}, sorted(violations), deadlocks)


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
