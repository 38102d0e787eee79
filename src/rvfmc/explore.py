"""Depth-first exploration of the reads-value-from trace partitioning.

Each node carries a good-writes function over the reads fixed so far, a
trace witnessing it, and a *causal map* recording, per read and per
thread, a prefix length of already-considered reads-from sources.  A node

1. extends its trace with every enabled non-read event (writes and mutex
   releases flush out; round-robin over thread ids keeps it deterministic),
2. reports any write so discovered to registered ancestor reads as a
   *backtrack signal* (a new conflicting write means the ancestor must keep
   mutating its read),
3. if nothing is enabled, records the maximal trace,
4. otherwise mutates enabled reads in order (reads without a causal-map
   entry first): for every value group of a read's viable sources it fixes
   the group as the read's good writes, obtains a witness (directly when the
   current trace already satisfies it, otherwise through the consistency
   solver), and yields the child; after a read is done its causal-map
   entry is bumped so later siblings must find it a source outside the trace.

Nodes are generators that one loop runs depth first on a stack, so a
child ends before its parent resumes.  A node extends the trace it is
given in place and undoes its own steps before it ends, so a direct
witness costs one step and one undo; only solver witnesses are replayed.

A node reads without scanning the whole trace:

* undone with the trace: its per-variable write lists and per-thread event
  chains (``Trace.writes`` and ``Trace.chains``), which the trace updates
  from its steps and undos when they are read.  Viable sources, a read's
  active write and the sources that a mutex's acquires have consumed come
  from them, and a read's solver instances get the chains as ``by_thread``;
* shared: the value groups.  Each is a ``vsc.GoodWrites``, which also holds
  its members' indices per writing thread, sorted once and then read by
  every closure that constrains its read.  The groups of a variable are
  kept until its sources change, so the nodes down a path that see the
  same writes group them once, and a release's singleton once per run;
* copied per child: the good-writes map, which gains the child's read, and
  the causal map, shallowly, since an entry is replaced and never changed.

With closure on, a node closes its trace under its good writes
(``vsc.closure``) when its first group needs a witness, starting from the
nearest ancestor's closure: a solver-witness child's starts from the
closure of the call that produced its witness, a direct-witness child's
from its parent's, or from the parent's own start if the parent made none.
Rule 1 of the closure is decided there once per read, as the index ranges
of the read's conflicting writes that stay visible (``vsc.visible``); a
group with none of its good writes in them is refuted without an instance
or a solver call, and every other one goes to the solver, whose closure
starts from the node's.  Instances only grow down the stack, so each
closure extends one already closed instead of closing from program order.

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

from .program import Event, EventId, Execution, Program, Trace, empty_trace, extend, replay
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
class _Signal:
    var: str
    thread: int
    fired: bool = False


@dataclass
class ExplorationReport:
    traces: list[Execution] = field(default_factory=list)
    rvf_keys: list = field(default_factory=list)
    vsc_calls: int = 0
    node_refutations: int = 0
    witness_states: int = 0
    deadlocks: int = 0
    wall_time_ms: float = 0.0
    options: ExploreOptions = ExploreOptions()

    @property
    def leaf_count(self) -> int:
        return len(self.traces)

    @property
    def assertion_violations(self) -> list[str]:
        out: set[str] = set()
        for t in self.traces:
            out |= t.violations
        return sorted(out)

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


def update_backtrack_signals(extension: Iterable[Event], signals: dict[EventId, _Signal]) -> None:
    """Flag every registered read that conflicts with a newly discovered write
    of another thread."""
    for w in extension:
        if w.kind != "W":
            continue
        for sig in signals.values():
            if sig.var == w.var and sig.thread != w.thread:
                sig.fired = True


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


def _instance_chains(trace: Trace, read: Event) -> dict[int, tuple[Event, ...]]:
    """``VscInstance.by_thread`` of the trace plus ``read``."""
    chains = {}
    for t, chain in enumerate(trace.chains, 1):
        if t == read.thread:
            chains[t] = (*chain, read)
        elif chain:
            chains[t] = tuple(chain)
    return chains


class _Explorer:
    def __init__(self, program: Program, options: ExploreOptions):
        self.program = program
        self.options = options
        self.mutexes = set(program.mutexes)
        self.signals: dict[EventId, _Signal] = {}
        # per plain variable, the last sources grouped and their groups
        self.grouped: dict[str, tuple[list[Event], list[GoodWrites]]] = {}
        # per mutex release, its singleton group
        self.singletons: dict[EventId, GoodWrites] = {}
        self.report = ExplorationReport(options=options)
        self.solver_options = options.solver()

    def run(self) -> ExplorationReport:
        start = time.perf_counter()
        root = Closure(range(1, len(self.program.threads) + 1)) if self.options.closure else None
        stack = [self._node({}, empty_trace(self.program), {}, root)]
        while stack:
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
            else:
                stack.append(self._node(*child))
        self.report.wall_time_ms = (time.perf_counter() - start) * 1000.0
        return self.report

    # -- per-read source grouping -------------------------------------------

    def _groups(
        self, read: Event, sources: list[Event], trace: Trace, goodw: dict[EventId, frozenset[EventId]]
    ) -> list[GoodWrites]:
        if read.var in self.mutexes:
            # Each release feeds at most one acquire; sources already claimed
            # by another acquire of this mutex in the trace are gone, and
            # every remaining one forms its own singleton group.
            consumed: set[EventId] = set()
            chains = trace.chains
            for (t, i), group in goodw.items():
                chain = chains[t - 1]
                if i <= len(chain) and chain[i - 1].kind == "R" and chain[i - 1].var == read.var:
                    consumed |= group
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

    def _node(
        self,
        goodw: dict[EventId, frozenset[EventId]],
        trace: Trace,
        cmap: CausalMap,
        start: Optional[Closure],
    ) -> Iterator[tuple]:
        """Explore below ``trace``, which is extended in place and left as it
        was found; ``start`` closes a relaxation of the node's trace.  Fixes
        each value group of each enabled read in turn and yields the child's
        arguments.  A group the trace satisfies is a direct witness; with
        closure on, any other one is first checked against the read's visible
        ranges on the node's closure (``vsc.visible``), and if it passes
        becomes an instance, the trace plus the read, for the solver."""
        before = len(trace.events)
        extend_nonreads(trace)
        update_backtrack_signals(trace.events[before:], self.signals)
        enabled = trace.enabled
        if not enabled:
            ex = trace.freeze()
            self.report.traces.append(ex)
            self.report.rvf_keys.append(rvf_key(ex))
            if ex.deadlocked:
                self.report.deadlocks += 1

        node = None  # the closure of this node's trace under goodw, made for the first group that needs a witness
        for read in sorted(enabled, key=lambda e: (e.eid in cmap, e.eid)):
            unmapped = read.eid not in cmap
            plain = read.var not in self.mutexes
            if unmapped and plain:
                self.signals[read.eid] = _Signal(read.var, read.thread)

            groups = self._groups(read, viable_sources(trace, read, cmap), trace, goodw)
            # the trace is the same for every group: children undo their steps
            writes = trace.writes[read.var]
            active = writes[-1].eid if writes else self.program.init_event(read.var).eid
            events = chains = None  # the instance's, made for its first group that needs a witness
            for group in groups:
                direct = active in group  # the current trace already satisfies it
                if not direct:
                    if events is None:
                        events, chains = (*trace.events, read), _instance_chains(trace, read)
                        if self.options.closure:
                            if node is None:
                                node = self._close(events, chains, read, goodw, start)
                            ranges, init_visible = visible(node, read)
                    if self.options.closure and not extremes(ranges, group.indices)[0] and not (
                        init_visible and self.program.init_event(read.var).eid in group
                    ):
                        self.report.node_refutations += 1
                        continue
                goodw2 = {**goodw, read.eid: group}
                if direct:
                    witness_trace, child_start = extend(trace, read), start if node is None else node
                else:
                    inst = VscInstance(events, goodw2, universe=self.program.globals, check=False, chains=chains)
                    found = self._witness(inst, node)
                    if found is None:
                        continue
                    witness_trace, child_start = found
                # entries are replaced, never changed, so children share them
                yield goodw2, witness_trace, dict(cmap), child_start
                if witness_trace is trace:
                    trace.undo()  # the read the direct witness appended

            if unmapped and plain:
                fired = self.signals.pop(read.eid).fired
                if self.options.backtrack_signals and not fired:
                    break
            counts = dict(enumerate(trace.counts, 1))
            counts[0] = len(self.program.globals)
            cmap[read.eid] = counts
        for _ in range(len(trace.events) - before):
            trace.undo()

    def _close(self, events, chains, read: Event, goodw, start: Optional[Closure]) -> Closure:
        """The closure from ``start`` of the node's trace under ``goodw``,
        sliced from ``events`` and ``chains``, the trace plus ``read``.  The
        trace witnesses ``goodw``, so the closure exists."""
        t = read.thread
        chains = {u: chain[:-1] if u == t else chain for u, chain in chains.items() if u != t or len(chain) > 1}
        order = closure(VscInstance(events[:-1], goodw, self.program.globals, check=False, chains=chains), start)
        if order is None:
            raise RuntimeError("the trace of an explorer node has no closure")
        return order

    def _witness(self, inst: VscInstance, start: Optional[Closure]) -> Optional[tuple[Trace, Optional[Closure]]]:
        """A fresh replay of a solver witness of ``inst``, the node's trace
        plus one read, and the closure of ``inst`` (with closure on), or
        None.  The instance is made of a trace's own events and writes, so
        it is well-formed and skips validation; its events in trace order
        are the auxiliary trace."""
        aux = inst.events if self.options.aux_trace else None
        result = verify_sc(inst, self.solver_options, aux=aux, start=start)
        self.report.vsc_calls += 1
        self.report.witness_states += result.states_processed
        if result.witness is None:
            return None
        return replay(self.program, result.witness), result.closure


def explore(program: Program, options: Optional[ExploreOptions] = None) -> ExplorationReport:
    """Run the exploration from the empty trace and report every maximal
    trace reached, one per realizable value assignment.  With closure on, a
    value group whose read fails closure rule 1 on its node's closure counts
    in ``node_refutations`` instead of ``vsc_calls``, and each solver call's
    closure extends its node's (see the module docstring); only the
    closures of the stack's path are kept."""
    return _Explorer(program, options or ExploreOptions()).run()
