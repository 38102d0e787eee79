"""Orders over trace events and the reads-value-from equivalence key.

``rvf_key`` accepts either a live ``Trace`` or a frozen ``Execution``
(anything with ``events`` and ``values``) and returns a canonical hashable
key: two traces get equal keys iff they have the same events, the same value
function, and the same causal ordering restricted to read events.  Event
identity across traces is the (thread, index) pair alone; diverging control
flow always shows up as a differing earlier read value, which the value
component of the key already separates.  The key is computed in one pass
with a causal-predecessor bitmask per event; the explorer keys every leaf
with it, and ``oracle.count_classes`` every maximal trace.

The closure orders of ``vsc`` are ``ClockOrder``s: one vector clock per
event, as in FastTrack (Flanagan and Freund, PLDI 2009).  The explicit-pairs
reference that tests compare ``ClockOrder`` and ``rvf_key`` against lives in
``tests/reference_closure.py`` and ``tests/reference_oracle.py``.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import Iterable, Optional, Union

from .program import EventId, Execution, Trace

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
# The reads-value-from key
# ---------------------------------------------------------------------------


def rvf_key(run: Run):
    """Canonical key of the reads-value-from class of a trace:
    ``("rvf", events, values, read_order)``.

    ``events`` are the sorted event ids, ``values`` their values in that
    order, and ``read_order`` the sorted pairs ``(a, b)`` of reads with
    ``a`` before ``b`` in the causal order: the weakest partial order that
    contains program order and puts each read after the write it reads from.
    One left-to-right pass gives each event a bitmask of its causal
    predecessors, bit i standing for the i-th event of the trace: an event
    inherits its thread's mask and, for a read, the mask of the latest write
    of its variable, which includes that write's own bit.  Initial writes
    precede everything implicitly and have no bit.
    """
    values = sorted(run.values.items())
    below: dict[int, int] = {}  # per thread: its latest event and what precedes it
    source: dict[str, int] = {}  # per variable: its latest write and what precedes it
    reads: list[tuple[int, int, EventId]] = []  # (bit, predecessors, id)
    bit = 1
    for e in run.events:
        t = e.thread
        if e.kind == "W":
            m = below.get(t, 0) | bit
            source[e.var] = m
        else:
            m = below.get(t, 0) | source.get(e.var, 0)
            reads.append((bit, m, (t, e.index)))
            m |= bit
        below[t] = m
        bit <<= 1
    ro = [(a, b) for i, (_, m, b) in enumerate(reads) for bit_a, _, a in reads[:i] if m & bit_a]
    ro.sort()
    ev, vals = zip(*values) if values else ((), ())
    return ("rvf", ev, vals, tuple(ro))
