"""Derived semantic objects over traces: reads-from, causal order, equivalence keys.

All functions here are pure and accept either a live ``Trace`` or a frozen
``Execution`` (anything with ``program``, ``events`` and ``values``).

Three trace equivalences get canonical hashable keys:

* ``maz_key``  -- equal iff the traces order every conflicting event pair
  identically (the classic commutation-based equivalence).
* ``rf_key``   -- equal iff same events and same reads-from function.
* ``rvf_key``  -- equal iff same events, same value function, and the same
  causal ordering restricted to read events.

Event identity across traces is the (thread, index) pair alone; diverging
control flow always shows up as a differing earlier read value, which the
value component of ``rvf_key`` already separates.

Causal orders, and the closure orders of ``vsc``, are ``ClockOrder``s: one
vector clock per event, as in FastTrack (Flanagan and Freund, PLDI 2009).
``PartialOrder`` stores explicit pairs over arbitrary elements and serves as
the reference that tests compare against.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Mapping, Union

from .program import Event, EventId, Execution, Trace

Run = Union[Trace, Execution]


# ---------------------------------------------------------------------------
# Partial orders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartialOrder:
    """A strict partial order over arbitrary elements, stored as its
    transitively closed set of pairs."""

    elements: frozenset[EventId]
    pairs: frozenset[tuple[EventId, EventId]]

    def less(self, a: EventId, b: EventId) -> bool:
        return (a, b) in self.pairs

    def ordered(self, a: EventId, b: EventId) -> bool:
        return (a, b) in self.pairs or (b, a) in self.pairs


def partial_order(elements: Iterable[EventId], edges: Iterable[tuple[EventId, EventId]]) -> PartialOrder:
    """Build the transitive closure of ``edges``; raises ValueError on a cycle."""
    elems = frozenset(elements)
    succ: dict[EventId, set[EventId]] = {e: set() for e in elems}
    for a, b in edges:
        succ[a].add(b)
    # iterative closure; element counts here are small
    changed = True
    while changed:
        changed = False
        for a in elems:
            extra = set()
            for b in succ[a]:
                extra |= succ[b] - succ[a]
            if extra:
                succ[a] |= extra
                changed = True
    pairs = set()
    for a in elems:
        if a in succ[a]:
            raise ValueError("relation contains a cycle")
        for b in succ[a]:
            pairs.add((a, b))
    return PartialOrder(elems, frozenset(pairs))


class CycleError(ValueError):
    """Adding an edge would close a cycle."""


class ClockOrder:
    """A strict partial order over the events of per-thread prefixes that
    contains program order, stored as one vector clock per event.

    ``rows[u][j]`` is the clock of the (j+1)-th event of thread
    ``threads[u]``: entry ``v`` counts the events of ``threads[v]`` that
    precede it (for its own thread, ``j``).  Predecessors in a thread always
    form a prefix, so ``less(a, b)`` is one comparison, and clocks never
    decrease along a thread.  ``elements`` and ``pairs`` are built on demand.
    """

    __slots__ = ("threads", "pos", "rows")

    def __init__(self, threads: Iterable[int]):
        self.threads = tuple(threads)
        self.pos = {t: u for u, t in enumerate(self.threads)}
        self.rows: list[list[tuple[int, ...]]] = [[] for _ in self.threads]

    @classmethod
    def program_order(cls, lengths: Mapping[int, int]) -> "ClockOrder":
        """Per-thread chains alone; ``lengths`` maps thread id to event count."""
        order = cls(sorted(lengths))
        k = len(order.threads)
        for u, (t, chain) in enumerate(zip(order.threads, order.rows)):
            for j in range(lengths[t]):
                clock = [0] * k
                clock[u] = j
                chain.append(tuple(clock))
        return order

    def clock(self, eid: EventId) -> tuple[int, ...]:
        return self.rows[self.pos[eid[0]]][eid[1] - 1]

    def less(self, a: EventId, b: EventId) -> bool:
        u, v = self.pos.get(a[0]), self.pos.get(b[0])
        if u is None or v is None or not 1 <= b[1] <= len(self.rows[v]):
            return False
        return 1 <= a[1] <= self.rows[v][b[1] - 1][u]

    def ordered(self, a: EventId, b: EventId) -> bool:
        return self.less(a, b) or self.less(b, a)

    def add(self, a: EventId, b: EventId) -> bool:
        """Order ``a`` before ``b``, with everything that implies.

        Returns False when the order already has the edge (or ``a == b``);
        raises CycleError when ``b`` precedes ``a``.  Every successor of ``b``
        joins ``a``'s clock: per thread, a suffix found by bisection, walked
        until a row already dominates the join.
        """
        pa, pb = self.pos[a[0]], self.pos[b[0]]
        rows = self.rows
        bi = b[1]
        if a == b or a[1] <= rows[pb][bi - 1][pa]:
            return False
        join = list(rows[pa][a[1] - 1])
        if join[pb] >= bi:
            raise CycleError(f"{b} precedes {a}")
        join[pa] = a[1]
        after_b = itemgetter(pb)
        for u, chain in enumerate(rows):
            if u == pb:
                j = bi - 1
            else:
                j = bisect_left(chain, bi, key=after_b)
            while j < len(chain):
                old = chain[j]
                new = tuple(map(max, old, join))
                if new == old:
                    break
                chain[j] = new
                j += 1
        return True

    @property
    def elements(self) -> frozenset[EventId]:
        return frozenset((t, j) for t, chain in zip(self.threads, self.rows) for j in range(1, len(chain) + 1))

    @property
    def pairs(self) -> frozenset[tuple[EventId, EventId]]:
        out = set()
        for t, chain in zip(self.threads, self.rows):
            for j, clock in enumerate(chain, start=1):
                for u, n in zip(self.threads, clock):
                    out.update(((u, i), (t, j)) for i in range(1, n + 1))
        return frozenset(out)


def refines(q: PartialOrder, p: PartialOrder) -> bool:
    """True when q orders everything p orders (q is the stronger order)."""
    return q.pairs >= p.pairs


def project(p: PartialOrder, subset: Iterable[EventId]) -> PartialOrder:
    sub = frozenset(subset)
    return PartialOrder(sub, frozenset((a, b) for a, b in p.pairs if a in sub and b in sub))


def is_lower_set(subset: Iterable[EventId], po: PartialOrder) -> bool:
    sub = set(subset)
    return all(a in sub for a, b in po.pairs if b in sub)


def sequence_order(events: Iterable[Event]) -> PartialOrder:
    """The total order induced by a sequence of events."""
    ids = [e.eid for e in events]
    pairs = {(ids[i], ids[j]) for i in range(len(ids)) for j in range(i + 1, len(ids))}
    return PartialOrder(frozenset(ids), frozenset(pairs))


def program_order(run: Run) -> PartialOrder:
    """Per-thread chains over the events of a run."""
    by_thread: dict[int, list[EventId]] = {}
    for e in run.events:
        by_thread.setdefault(e.thread, []).append(e.eid)
    pairs = set()
    for chain in by_thread.values():
        chain.sort()
        for i in range(len(chain)):
            for j in range(i + 1, len(chain)):
                pairs.add((chain[i], chain[j]))
    return PartialOrder(frozenset(e.eid for e in run.events), frozenset(pairs))


# ---------------------------------------------------------------------------
# Reads-from and the causal order
# ---------------------------------------------------------------------------


def reads_from(run: Run) -> dict[Event, Event]:
    """Map each read to the latest earlier conflicting write (initial write if none)."""
    active: dict[str, Event] = {}
    rf: dict[Event, Event] = {}
    for e in run.events:
        if e.kind == "W":
            active[e.var] = e
        else:
            rf[e] = active.get(e.var) or run.program.init_event(e.var)
    return rf


def causal_order(run: Run) -> ClockOrder:
    """Weakest partial order refining program order that puts each read after
    its reads-from source.

    Computed in one left-to-right pass: an event's clock is its thread
    predecessor's clock joined, for a read, with the clock of its source.
    Initial writes precede everything implicitly and are not materialized.
    """
    k = len(run.program.threads)
    order = ClockOrder(range(1, k + 1))
    rows = order.rows
    active: dict[str, Event] = {}  # latest write per variable; absent: initial
    for e in run.events:
        t = e.thread - 1
        chain = rows[t]
        clock = list(chain[-1]) if chain else [0] * k
        clock[t] = e.index - 1
        if e.kind == "W":
            active[e.var] = e
        else:
            w = active.get(e.var)
            if w is not None:
                clock = list(map(max, clock, rows[w.thread - 1][w.index - 1]))
                clock[w.thread - 1] = max(clock[w.thread - 1], w.index)
        chain.append(tuple(clock))
    return order


def visible_writes(p: PartialOrder, events: Iterable[Event], r: Event) -> set[Event]:
    """Writes of ``events`` that conflict with read ``r`` and are not hidden by ``p``.

    A write w is hidden when some conflicting write sits strictly between w
    and r in p, or when r itself is ordered before w.
    """
    pool = [e for e in events if e.kind == "W" and e.conflicts(r)]
    out = set()
    for w in pool:
        if p.less(r.eid, w.eid):
            continue
        if any(p.less(w.eid, x.eid) and p.less(x.eid, r.eid) for x in pool if x.eid != w.eid):
            continue
        out.add(w)
    return out


# ---------------------------------------------------------------------------
# Equivalence keys
# ---------------------------------------------------------------------------


def _events_key(run: Run) -> tuple[EventId, ...]:
    return tuple(sorted(e.eid for e in run.events))


def rvf_key(run: Run):
    """Canonical key of the reads-value-from class of a trace."""
    ev = _events_key(run)
    vals = tuple(run.values[eid] for eid in ev)
    rows = causal_order(run).rows
    # per thread, the indices and ids of its reads; each id is made once and
    # shared by every pair that holds it
    indices: list[list[int]] = [[] for _ in rows]
    ids: list[list[EventId]] = [[] for _ in rows]
    for e in run.events:
        if e.kind == "R":
            indices[e.thread - 1].append(e.index)
            ids[e.thread - 1].append(e.eid)
    ro = []
    for t, (bs, b_ids) in enumerate(zip(indices, ids)):
        for bi, b in zip(bs, b_ids):
            clock = rows[t][bi - 1]
            for u, a_ids in enumerate(ids):
                if a_ids and indices[u][0] <= clock[u]:
                    ro.extend((a, b) for a in a_ids[: bisect_right(indices[u], clock[u])])
    ro.sort()
    return ("rvf", ev, vals, tuple(ro))


def rf_key(run: Run):
    """Canonical key of the reads-from class of a trace."""
    rf = reads_from(run)
    pairs = tuple(sorted((r.eid, w.eid) for r, w in rf.items()))
    return ("rf", _events_key(run), pairs)


def maz_key(run: Run):
    """Canonical key of the commutation class: orientation of every conflicting pair."""
    events = run.events
    oriented = []
    for i, a in enumerate(events):
        for b in events[i + 1 :]:
            if a.conflicts(b):
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
