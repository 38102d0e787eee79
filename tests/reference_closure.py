"""The pairs-based reference for the vector-clock orders of ``rvfmc``.

``_Order`` stores a strict order as transitively closed successor and
predecessor sets, and ``clock_less`` and ``clock_pairs`` read the clock
rows of a ``vsc.Closure`` in the same terms.  The tests check
``Closure.add`` against it, ``reference_oracle`` builds on it the causal
order behind the reference rvf key, and ``reference_closure`` computes on
it the closure that the clock-based ``vsc.closure`` is checked against:
it evaluates the four closure rules on every write of a read's variable,
so each read costs O(W^2) per pass.  It is slow but direct, which is what
a reference should be.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from rvfmc.program import Event, EventId
from rvfmc.vsc import Closure, VscInstance


class _Cycle(Exception):
    """Adding an edge would close a cycle."""


class _Order:
    """Mutable transitively-closed strict order over program event ids."""

    def __init__(self, eids: Iterable[EventId]):
        self.succ: dict[EventId, set[EventId]] = {e: set() for e in eids}
        self.pred: dict[EventId, set[EventId]] = {e: set() for e in self.succ}

    def less(self, a: EventId, b: EventId) -> bool:
        return b in self.succ[a]

    @property
    def pairs(self) -> frozenset[tuple[EventId, EventId]]:
        return frozenset((a, b) for a, succ in self.succ.items() for b in succ)

    def add(self, a: EventId, b: EventId) -> bool:
        if a == b or b in self.succ[a]:
            return False
        if a in self.succ[b]:
            raise _Cycle
        before = self.pred[a] | {a}
        after = self.succ[b] | {b}
        for x in before:
            for y in after:
                if y not in self.succ[x]:
                    if x == y or x in self.succ[y]:
                        raise _Cycle
                    self.succ[x].add(y)
                    self.pred[y].add(x)
        return True


def clock_less(order: Closure, a: EventId, b: EventId) -> bool:
    """True when ``a`` precedes ``b`` in ``order``: one clock comparison.
    Ids outside the order (initial writes, absent threads, indices outside
    a chain) are unordered."""
    u, v = order.pos.get(a[0]), order.pos.get(b[0])
    if u is None or v is None or not 1 <= b[1] <= len(order.rows[v]):
        return False
    return 1 <= a[1] <= order.rows[v][b[1] - 1][u]


def clock_pairs(order: Closure) -> frozenset[tuple[EventId, EventId]]:
    """``order`` as explicit pairs, as ``_Order.pairs`` gives them."""
    out = set()
    for t, chain in zip(order.threads, order.rows):
        for j, clock in enumerate(chain, start=1):
            for u, n in zip(order.threads, clock):
                out.update(((u, i), (t, j)) for i in range(1, n + 1))
    return frozenset(out)


def respects(seq: Sequence[Event], order: Closure) -> bool:
    """True when every pair of ``order`` appears in that order in ``seq``."""
    at = {e.eid: i for i, e in enumerate(seq)}
    return all(a in at and b in at and at[a] < at[b] for a, b in clock_pairs(order))


def reference_closure(inst: VscInstance) -> Optional[_Order]:
    """The closure of ``inst`` as explicit pairs, or None when none exists.

    Same rules and rule order as ``rvfmc.vsc.closure``, applied in passes
    over the reads in event order until a pass adds no edge, where
    ``closure`` runs a worklist that re-steps only the reads an edge may
    concern; the tests check that both reach the same order.
    """
    order = _Order([e.eid for e in inst.events])
    for chain in inst.by_thread.values():
        for i in range(len(chain) - 1):
            order.add(chain[i].eid, chain[i + 1].eid)

    reads = [e for e in inst.events if e.kind == "R"]
    writes_of: dict[str, list[EventId]] = {}
    for e in inst.events:
        if e.kind == "W":
            writes_of.setdefault(e.var, []).append(e.eid)

    def visible(r: Event) -> set[EventId]:
        conf = writes_of.get(r.var, [])
        out = set()
        for w in conf:
            if order.less(r.eid, w):
                continue
            if any(order.less(w, x) and order.less(x, r.eid) for x in conf if x != w):
                continue
            out.add(w)
        init = inst.init_eid(r.var)
        if not any(order.less(x, r.eid) for x in conf):
            out.add(init)
        return out

    def lt(a: EventId, b: EventId) -> bool:
        if a == b:
            return False
        if a[0] == 0:
            return True
        if b[0] == 0:
            return False
        return order.less(a, b)

    def pass_once() -> bool:
        changed = False
        for r in reads:
            gw = inst.good_writes[r.eid]
            cl = gw & visible(r)
            if not cl:
                raise _Cycle
            least = [w for w in cl if all(lt(w, x) or w == x for x in cl)]
            if least and least[0][0] != 0:
                changed |= order.add(least[0], r.eid)
            greatest = [w for w in cl if all(lt(x, w) or w == x for x in cl)]
            bad = [w for w in writes_of.get(r.var, []) if w not in gw]
            if greatest:
                g = greatest[0]
                for w in bad:
                    if order.less(w, r.eid) and not lt(w, g):
                        if g[0] == 0:
                            raise _Cycle  # a program write cannot precede the initial write
                        changed |= order.add(w, g)
            for w in bad:
                if all(lt(x, w) for x in cl):
                    changed |= order.add(r.eid, w)
        return changed

    try:
        while pass_once():
            pass
    except _Cycle:
        return None
    return order
