"""Depth-first exploration of the reads-value-from trace partitioning.

Each node carries a good-writes function over the reads fixed so far, a
trace witnessing it, and a *causal map* recording, per read and per
thread, a prefix length of already-considered reads-from sources.  A node

1. extends its trace with every enabled non-read event (writes and mutex
   releases flush out; round-robin over thread ids keeps it deterministic),
2. reports any write so discovered to registered ancestor reads as a
   *backtrack signal* (a new conflicting write means the ancestor must keep
   mutating its read),
3. if nothing is enabled, records the maximal trace: its schedule, rvf
   key and violations, and whether it deadlocked,
4. otherwise mutates enabled reads in order (reads without a causal-map
   entry first): for every value group of a read's viable sources it fixes
   the group as the read's good writes, obtains a witness (directly when the
   current trace already satisfies it, otherwise through the consistency
   solver), and yields the child; after a read is done its causal-map
   entry is bumped so later siblings must find it a source outside the trace.

Nodes are generators that one loop runs depth first on a stack, so a
child ends before its parent resumes, and the path's state is kept once:
a node changes it in place and takes its changes back.  A direct witness
costs one step and one undo; only solver witnesses are replayed.

A node reads without scanning the whole trace:

* undone with the trace: its per-variable write lists and per-thread event
  chains (``Trace.writes`` and ``Trace.chains``), which the trace updates
  from its steps and undos when they are read.  Viable sources and a
  read's active write come from them, and a node's fill reads the chains
  in place;
* undone by the node: the good-writes map, which holds each child's read
  while the child runs, the causal map's bumped entries, per mutex the
  releases the path's acquires take, and the closure (below);
* shared: the value groups.  Each is a ``vsc.GoodWrites``, which also holds
  its members' indices per writing thread, sorted once and then read by
  every closure that constrains its read, and whether the initial write is
  one of them.  The groups of a variable are kept until its sources
  change, so the nodes down a path that see the same writes group them
  once, and a release's singleton once per run.

With closure on, the explorer keeps one ``vsc.Closure``, which on entry
to a node closes a relaxation of the node's trace.  A node fills it to its
own trace under its good writes when its first group needs a witness,
and undoes the fill when it ends.  A fill hands ``vsc.closure`` the live
path state, the trace's chains and the good-writes map.  The map changes
in stack order and every extension of the closure is undone before the
next sibling, so the closure constrains the map's first keys and the
fill's new reads are its last: a fill costs the new events and reads,
not the path.
Rule 1 of the closure is decided there once per read, as the index ranges
of the read's conflicting writes that stay visible (``vsc.visible``); a
group with none of its good writes in them is refuted without a solver
call, and only for a group that passes is an instance of the trace plus
the read built.  The solver's closure extends the node's in place, and is
undone when the witness child returns, or at once without a witness.
Traces only grow down the stack, so no closure starts from program order.

A plain read processed without ever receiving a backtrack signal ends the
loop: no compatible schedule assigns it a source beyond the current trace,
so the remaining mutations cannot reach new behavior.  Mutex acquires are
exempt from that cut: a blocked acquire can vanish from maximal extensions
entirely (deadlock), voiding the argument behind the signal, so acquires
are always processed.  Acquire reads also take each source as its own
singleton group and never share a source already consumed by another
acquire of the same mutex, so solver witnesses respect mutual exclusion.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .program import Event, EventId, Program, Trace, empty_trace, extend, replay
from .semantics import rvf_key
from .vsc import Closure, GoodWrites, SolverOptions, VscInstance, closure, extremes, verify_sc, visible

CausalMap = dict[EventId, dict[int, int]]


@dataclass(frozen=True)
class ExploreOptions:
    backtrack_signals: bool = True
    closure: bool = True
    greedy: bool = True
    aux_trace: bool = True

    def solver(self) -> SolverOptions:
        return SolverOptions(greedy=self.greedy, closure=self.closure, guided=self.aux_trace)


@dataclass
class ExplorationReport:
    """What ``explore`` found.  A leaf is kept as its schedule, the events of
    the maximal trace in order, next to its rvf key at the same index;
    ``replay(program, schedule)`` gives back its values, violations and
    deadlock."""

    schedules: list[tuple[Event, ...]] = field(default_factory=list)
    rvf_keys: list = field(default_factory=list)
    violations: set[str] = field(default_factory=set)
    vsc_calls: int = 0
    node_refutations: int = 0
    witness_states: int = 0
    deadlocks: int = 0
    wall_time_ms: float = 0.0
    options: ExploreOptions = ExploreOptions()

    @property
    def leaf_count(self) -> int:
        return len(self.schedules)

    @property
    def assertion_violations(self) -> list[str]:
        return sorted(self.violations)

    def distinct_rvf_classes(self) -> int:
        return len(set(self.rvf_keys))


def extend_nonreads(trace: Trace) -> Trace:
    """Append enabled non-read events round-robin by thread id until only
    reads (or nothing) remain enabled; the trace is extended in place and
    returned."""
    changed = True
    while changed:
        changed = False
        # A thread's pending write stays enabled until that thread steps, so
        # one snapshot per round serves every thread of the round.
        for e in trace.enabled:
            if e.kind == "W":
                extend(trace, e)
                changed = True
    return trace


def update_backtrack_signals(extension: Iterable[Event], signals: dict[str, dict[EventId, int]]) -> None:
    """Fire the signal of every registered read that conflicts with a newly
    discovered write of another thread.  ``signals`` holds, by variable and
    read, the thread of each signal not yet fired; firing removes it."""
    for w in extension:
        if w.kind != "W":
            continue
        pending = signals.get(w.var)
        if pending:
            for eid in [eid for eid, t in pending.items() if t != w.thread]:
                del pending[eid]


def viable_sources(trace: Trace, read: Event, cmap: CausalMap) -> list[Event]:
    """Writes of the trace that conflict with the read, after the initial
    write, in trace order, less those its causal-map entry forbids."""
    sources = [trace.program.init_event(read.var), *trace.writes[read.var]]
    bounds = cmap.get(read.eid)
    if bounds:
        sources = [w for w in sources if w.index > bounds.get(w.thread, 0)]
    return sources


def group_by_value(sources: Iterable[Event]) -> list[tuple[int, GoodWrites]]:
    """Partition sources by written value into groups of event ids, ordered
    by each value's first source (trace order for ``viable_sources``)."""
    groups: dict[int, list[EventId]] = {}
    for w in sources:
        groups.setdefault(w.value, []).append(w.eid)
    return [(value, GoodWrites(ids)) for value, ids in groups.items()]


class _Explorer:
    def __init__(self, program: Program, options: ExploreOptions):
        self.program = program
        self.options = options
        self.mutexes = set(program.mutexes)
        self.signals: dict[str, dict[EventId, int]] = {}  # per variable and read, an unfired signal's thread
        # the path's state: the good writes of its reads, the causal map, per
        # mutex the releases that its acquires take, and with closure on the closure
        self.goodw: dict[EventId, GoodWrites] = {}
        self.cmap: CausalMap = {}
        self.consumed: dict[str, set[EventId]] = {m: set() for m in self.mutexes}
        self.order = Closure(range(1, len(program.threads) + 1)) if options.closure else None
        # per plain variable, the last sources grouped and their groups
        self.grouped: dict[str, tuple[list[Event], list[GoodWrites]]] = {}
        # per mutex release, its singleton group
        self.singletons: dict[EventId, GoodWrites] = {}
        self.report = ExplorationReport(options=options)
        self.solver_options = options.solver()

    def run(self) -> ExplorationReport:
        start = time.perf_counter()
        stack = [self._node(empty_trace(self.program))]
        while stack:
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
            else:
                stack.append(self._node(child))
        self.report.wall_time_ms = (time.perf_counter() - start) * 1000.0
        return self.report

    # -- per-read source grouping -------------------------------------------

    def _groups(self, read: Event, sources: list[Event]) -> list[GoodWrites]:
        if read.var in self.mutexes:
            # Each release feeds at most one acquire; sources already taken
            # by another acquire of this mutex on the path are gone, and
            # every remaining one forms its own singleton group.
            consumed = self.consumed[read.var]
            free = [w.eid for w in sources if w.eid not in consumed]
            return [self.singletons.get(e) or self.singletons.setdefault(e, GoodWrites((e,))) for e in free]
        # The nodes down a path mostly see the same writes of a variable,
        # and two lists of the same event objects compare without calling
        # Event.__eq__.
        last = self.grouped.get(read.var)
        if last is not None and last[0] == sources:
            return last[1]
        groups = [group for _, group in group_by_value(sources)]
        self.grouped[read.var] = (sources, groups)
        return groups

    # -- the depth-first search ----------------------------------------------

    def _node(self, trace: Trace) -> Iterator[Trace]:
        """Explore below ``trace``, extended in place and left as it was
        found, as is the rest of the path's state.  Fixes each value group of
        each enabled read in turn and yields the child's trace.  A group the
        trace satisfies is a direct witness; with closure on, any other one
        must pass the read's visible ranges on the node's closure
        (``vsc.visible``) before it goes to the solver."""
        goodw, cmap, order, report = self.goodw, self.cmap, self.order, self.report
        universe = self.program.globals
        before = len(trace.events)
        extend_nonreads(trace)
        update_backtrack_signals(trace.events[before:], self.signals)
        enabled = trace.enabled
        if not enabled:
            report.schedules.append(tuple(trace.events))
            report.rvf_keys.append(rvf_key(trace))
            report.violations.update(trace.violations)
            if trace.deadlocked:
                report.deadlocks += 1

        filled = None  # the fill's mark, taken at the first group that needs a witness
        bumped = []  # per causal-map entry that this node set, the read and the entry it replaced
        for read in sorted(enabled, key=lambda e: (e.eid in cmap, e.eid)):
            unmapped = read.eid not in cmap
            consumed = self.consumed.get(read.var)  # None for a plain read
            signalled = unmapped and consumed is None
            if signalled:
                self.signals.setdefault(read.var, {})[read.eid] = read.thread

            groups = self._groups(read, viable_sources(trace, read, cmap))
            # the trace is the same for every group: children undo their steps
            writes = trace.writes[read.var]
            active = writes[-1].eid if writes else self.program.init_event(read.var).eid
            ranges = events = None  # made at the read's first group that needs them
            for group in groups:
                direct = active in group  # the current trace already satisfies it
                if not direct and order is not None:
                    if ranges is None:
                        if filled is None:  # fill the closure to the node's trace under goodw
                            filled = order.mark()
                            if closure(dict(enumerate(trace.chains, 1)), goodw, order) is None:
                                raise RuntimeError("the trace of an explorer node has no closure")
                        ranges, init_visible = visible(order, read)
                    if not extremes(ranges, group.indices)[0] and not (init_visible and group.init):
                        report.node_refutations += 1
                        continue
                goodw[read.eid] = group
                mark = None if order is None else order.mark()
                if direct:
                    child = extend(trace, read)
                else:  # the solver's closure extends the node's in place
                    if events is None:  # the trace plus the read, shared by the read's solver calls
                        events = (*trace.events, read)
                        chains = {t: tuple(c) for t, c in enumerate(trace.chains, 1) if c or t == read.thread}
                        chains[read.thread] += (read,)
                    inst = VscInstance(events, goodw, universe, check=False, chains=chains)
                    result = verify_sc(inst, self.solver_options, start=order)
                    report.vsc_calls += 1
                    report.witness_states += result.states_processed
                    child = None if result.witness is None else replay(self.program, result.witness, like=trace)
                if child is not None:
                    if consumed is not None:
                        consumed |= group
                    yield child
                    if consumed is not None:
                        consumed -= group
                    if child is trace:
                        trace.undo()  # the read the direct witness appended
                if order is not None:
                    order.undo(mark)  # the solver call's extension of the node's closure
                del goodw[read.eid]

            if signalled:
                fired = self.signals[read.var].pop(read.eid, None) is None  # firing removed it
                if self.options.backtrack_signals and not fired:
                    break
            bumped.append((read.eid, cmap.get(read.eid)))
            cmap[read.eid] = dict(enumerate((len(universe), *trace.counts)))  # thread 0: the initial writes
        for eid, old in reversed(bumped):
            if old is None:
                del cmap[eid]
            else:
                cmap[eid] = old
        if filled is not None:
            order.undo(filled)
        for _ in range(len(trace.events) - before):
            trace.undo()


def explore(program: Program, options: Optional[ExploreOptions] = None) -> ExplorationReport:
    """Explore from the empty trace and report the schedule of every
    maximal trace reached, one per realizable value assignment.  With
    closure on, a value group whose read fails closure rule 1 on its node's
    closure counts in ``node_refutations`` instead of ``vsc_calls``, and
    each solver call's closure extends its node's (see the module
    docstring); the run keeps one closure, extended and undone along its
    path."""
    return _Explorer(program, options or ExploreOptions()).run()
