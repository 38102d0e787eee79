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
``ClockOrder`` is the one order type here; the explicit-pairs reference that
tests compare it against lives in ``tests/reference_closure.py``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Iterable, Optional, Union

from .program import Event, EventId, Execution, Trace

Run = Union[Trace, Execution]


# ---------------------------------------------------------------------------
# Vector-clock orders
# ---------------------------------------------------------------------------


class CycleError(ValueError):
    """Adding an edge would close a cycle."""


class ClockOrder:
    """A strict partial order over the events of per-thread prefixes that
    contains program order, stored as one vector clock per event.

    ``rows[u][j]`` is the clock of the (j+1)-th event of thread
    ``threads[u]``: entry ``v`` counts the events of ``threads[v]`` that
    precede it (for its own thread, ``j``).  Predecessors in a thread always
    form a prefix, so ``less(a, b)`` is one comparison, and clocks never
    decrease along a thread.  ``pairs`` is built on demand.
    """

    __slots__ = ("threads", "pos", "rows")

    def __init__(self, threads: Iterable[int]):
        self.threads = tuple(threads)
        self.pos = {t: u for u, t in enumerate(self.threads)}
        self.rows: list[list[tuple[int, ...]]] = [[] for _ in self.threads]

    def clock(self, eid: EventId) -> tuple[int, ...]:
        return self.rows[self.pos[eid[0]]][eid[1] - 1]

    def less(self, a: EventId, b: EventId) -> bool:
        u, v = self.pos.get(a[0]), self.pos.get(b[0])
        if u is None or v is None or not 1 <= b[1] <= len(self.rows[v]):
            return False
        return 1 <= a[1] <= self.rows[v][b[1] - 1][u]

    def add(self, a: EventId, b: EventId, touched: Optional[list] = None) -> bool:
        """Order ``a`` before ``b``, with everything that implies.

        Returns False when the order already has the edge (or ``a == b``);
        raises CycleError when ``b`` precedes ``a``.  Every successor of ``b``
        joins ``a``'s clock: per thread, a suffix found by bisection, walked
        until a row already dominates the join.  With ``touched``, each
        thread's rewritten rows are appended to it as ``(u, first, end)``:
        ``rows[u][first:end]`` changed.
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
            first = j
            while j < len(chain):
                old = chain[j]
                new = tuple(map(max, old, join))
                if new == old:
                    break
                chain[j] = new
                j += 1
            if touched is not None and j > first:
                touched.append((u, first, j))
        return True

    @property
    def pairs(self) -> frozenset[tuple[EventId, EventId]]:
        out = set()
        for t, chain in zip(self.threads, self.rows):
            for j, clock in enumerate(chain, start=1):
                for u, n in zip(self.threads, clock):
                    out.update(((u, i), (t, j)) for i in range(1, n + 1))
        return frozenset(out)


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
