"""Realizability of an event set under a good-writes constraint.

An instance pairs a proper event set X (union of per-thread prefixes) with a
good-writes function mapping every read in X to a non-empty set of
conflicting writes (program writes of X, or the initial write of the read's
variable).  A *witness* is a linearization of X that respects program order
in which every read reads-from one of its good writes.

``verify_sc`` decides witness existence by one depth-first search over
witness prefixes, ``_search``.  Its state is the prefix it has run, kept as
per-thread event counts, per-variable active (latest) writes and a held
bit per variable, all changed in place: running an event advances them and
backtracking undoes the last event.  The successors of a prefix are the
threads whose next event is executable (a read whose active write is good,
or a write to a variable that no unrun read holds, with its closure
predecessors run), narrowed by the greedy rules and run in push-key order.

The search prunes on the *witness state*: the per-thread event counts plus,
per variable, the id of its active write.  Two prefixes with equal witness
state are extendable by exactly the same suffixes, so a successor whose
state was reached before is not run.  As in a stack search, a state is
marked when its prefix becomes a successor, not when it runs, so the
search runs the same states in the same order as a LIFO stack search.  The
memo is built only at the first dead end, from the path and the successors
still waiting beside it, since until then nothing can be pruned: the
successors of one prefix advance different threads, and prefixes of
different lengths differ in the sums of their counts.  A search that never
backtracks (its first descent, the *dive*) therefore runs n + 1 states
and builds no memo.
Given the counts, the active write of a variable is the last write of it
among the run events of one thread, or the initial write, so it takes at
most k + 1 values, and the number of distinct states is at most
prod_t(n_t + 1) * (k + 1)^d, which bounds the search.

Three independently switchable accelerations:

* greedy extension -- an executable read is always taken immediately; an
  executable write that is useless to every remaining read may replace an
  equally useless active write without enumerating alternatives;
* closure -- a fixpoint pre-pass computing the weakest partial order every
  witness must refine; failure proves the instance unrealizable, success
  restricts the search to order-respecting extensions.  The order is a
  ``Closure``, one vector clock per event, so a read costs
  O(k^2 log W) per step over k threads and W conflicting writes instead of
  the O(W^2) of explicit pairs, and the search reads each event's
  predecessors off its clock.  A closure can start from the closure of a
  relaxation of its instance and step only the reads that the new events
  and constraints concern;
* guided search -- the successors of a prefix run in the order of
  ``inst.events`` instead of thread order.  The explorer lists an
  instance's events in the order of the trace it extends, so that trace,
  the paper's auxiliary trace, guides the search.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import InitVar, dataclass
from functools import cached_property
from operator import attrgetter, itemgetter, le
from typing import Collection, Iterable, Mapping, Optional

from .program import Event, EventId


class VscError(ValueError):
    """Malformed instance: improper event set or unusable good-writes entry."""


@dataclass(frozen=True)
class SolverOptions:
    greedy: bool = True
    closure: bool = True
    guided: bool = True


def _group(events: Iterable[Event]) -> dict[int, tuple[Event, ...]]:
    """Each thread's events in index order, by thread id.  The events are
    sorted only when they come out of index order, as a parsed instance's
    may."""
    out: dict[int, list[Event]] = {}
    ordered = True
    for e in events:
        chain = out.get(e.thread)
        if chain is None:
            out[e.thread] = [e]
        else:
            ordered = ordered and chain[-1].index < e.index
            chain.append(e)
    if not ordered:
        for chain in out.values():
            chain.sort(key=attrgetter("index"))
    return {t: tuple(out[t]) for t in sorted(out)}


@dataclass(frozen=True)
class VscInstance:
    """Events X and the good-writes function, validated on construction.

    ``universe`` fixes the variable-ordinal scheme used for initial-write ids
    (thread 0, index = 1-based position among sorted variable names); it
    defaults to the variables occurring in the events.  A checked instance
    keeps its good-writes sets as ``GoodWrites``.  ``check=False`` skips the
    validation and the conversion, for callers that build only well-formed
    instances whose good-writes sets are already ``GoodWrites``.
    ``chains``, when given, is ``by_thread`` as the caller already has it:
    per thread id in increasing order, for the threads with events, the
    tuple of its events in index order.  The explorer passes its trace's
    chains so that no instance groups its events again; with ``check`` on
    they must equal the grouping of ``events``.
    """

    events: tuple[Event, ...]
    good_writes: dict[EventId, GoodWrites]
    universe: tuple[str, ...] = ()
    check: InitVar[bool] = True
    chains: InitVar[Optional[Mapping[int, tuple[Event, ...]]]] = None

    def __post_init__(self, check: bool, chains: Optional[Mapping[int, tuple[Event, ...]]]):
        if chains is not None:
            if check and list(chains.items()) != list(_group(self.events).items()):
                raise VscError("the chains are not the events grouped by thread")
            self.__dict__["by_thread"] = chains  # the cached_property's slot
        if not check:
            return
        by_thread: dict[int, dict[int, Event]] = {}
        for e in self.events:
            if e.thread <= 0:
                raise VscError(f"event {e!r}: thread ids must be positive")
            slot = by_thread.setdefault(e.thread, {})
            if e.index in slot:
                raise VscError(f"duplicate event id {e.eid}")
            slot[e.index] = e
        for tid, slot in by_thread.items():
            if sorted(slot) != list(range(1, len(slot) + 1)):
                raise VscError(f"thread {tid}: events do not form a prefix 1..n")
        if self.universe:
            missing = {e.var for e in self.events} - set(self.universe)
            if missing:
                raise VscError(f"variables {sorted(missing)} outside the declared universe")
        writes = {e.eid: e for e in self.events if e.kind == "W"}
        for e in self.events:
            if e.kind != "R":
                continue
            gw = self.good_writes.get(e.eid)
            if not gw:
                raise VscError(f"read {e.eid} has no good-writes entry")
            for weid in gw:
                if weid[0] == 0:
                    if weid != self.init_eid(e.var):
                        raise VscError(f"{weid} is not the initial write of {e.var!r}")
                elif weid not in writes or writes[weid].var != e.var:
                    raise VscError(f"good write {weid} of read {e.eid} does not conflict")
        read_ids = {e.eid for e in self.events if e.kind == "R"}
        for reid in self.good_writes:
            if reid not in read_ids:
                raise VscError(f"good-writes entry for non-read {reid}")
        good_writes = {r: gw if isinstance(gw, GoodWrites) else GoodWrites(gw) for r, gw in self.good_writes.items()}
        object.__setattr__(self, "good_writes", good_writes)

    @cached_property
    def by_thread(self) -> Mapping[int, tuple[Event, ...]]:
        """Each thread's events in index order, by thread id in increasing
        order: the ``chains`` given, else the grouping of ``events``."""
        return _group(self.events)

    @cached_property
    def threads(self) -> tuple[int, ...]:
        return tuple(sorted(self.by_thread))

    @cached_property
    def variables(self) -> tuple[str, ...]:
        if self.universe:
            return tuple(sorted(self.universe))
        return tuple(sorted({e.var for e in self.events}))

    def init_eid(self, var: str) -> EventId:
        return (0, self.variables.index(var) + 1)


# ---------------------------------------------------------------------------
# Closure
# ---------------------------------------------------------------------------


class CycleError(ValueError):
    """Adding an edge would close a cycle."""


class Closure:
    """A strict partial order over the events of per-thread prefixes that
    contains program order, stored as one vector clock per event, as in
    FastTrack (Flanagan and Freund, PLDI 2009), with the tables that
    extending it needs.

    ``rows[u][j]`` is the clock of the (j+1)-th event of thread
    ``threads[u]``: entry ``v`` counts the events of ``threads[v]`` that
    precede it (for its own thread, ``j``).  Predecessors in a thread always
    form a prefix, so whether ``a`` precedes ``b`` is one comparison, and
    clocks never decrease along a thread.  ``writes_of[var][u]`` lists the
    indices of the writes of ``var`` by the thread at position ``u``,
    sorted; ``entries`` maps each constrained read to what ``_step`` needs
    of it, and ``reads_of[var]`` lists the constrained reads of ``var``.  A
    closure is not changed after ``closure`` returns it: extending one
    copies its rows and tables.
    """

    __slots__ = ("threads", "pos", "rows", "writes_of", "entries", "reads_of")

    def __init__(self, threads: Iterable[int]):
        self.threads = tuple(threads)
        self.pos = {t: u for u, t in enumerate(self.threads)}
        self.rows: list[list[tuple[int, ...]]] = [[] for _ in self.threads]
        self.writes_of: dict[str, dict[int, list[int]]] = {}
        self.entries: dict[EventId, tuple] = {}
        self.reads_of: dict[str, list[EventId]] = {}

    def copy(self) -> "Closure":
        new = Closure.__new__(Closure)
        new.threads, new.pos = self.threads, self.pos
        new.rows = [chain.copy() for chain in self.rows]
        new.writes_of, new.entries, new.reads_of = dict(self.writes_of), dict(self.entries), dict(self.reads_of)
        return new

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


class GoodWrites(frozenset):
    """A set of good writes that also keeps, per writing thread id, the
    indices of its members in increasing order, which the closure rules
    bisect.  The explorer builds one per value group, so every closure that
    constrains the group's read shares these lists instead of sorting its
    own, and a checked ``VscInstance`` one per read.  They are never
    changed."""

    __slots__ = ("indices",)

    def __new__(cls, eids: Collection[EventId]):
        self = super().__new__(cls, eids)
        indices: dict[int, list[int]] = {}
        # ids in trace order, as the explorer gives them, list each thread's
        # indices in increasing order, and sorting an ordered list is one pass
        for t, i in eids:
            if t:
                indices.setdefault(t, []).append(i)
        for g in indices.values():
            g.sort()
        self.indices = indices
        return self


def _read_entry(r: Event, gw: GoodWrites, init: EventId, pos: dict[int, int]):
    """What ``_step`` needs of read ``r``: its id and position, its good
    writes, whether the initial write ``init`` is one of them, its variable
    (new writes of which leave the entry as it is), and per writing thread
    position the sorted indices of its good writes (see ``GoodWrites``)."""
    good = {pos[t]: g for t, g in gw.indices.items()}
    ru = pos[r.thread]
    return (r.eid, ru, r.index, itemgetter(ru), gw, init in gw, r.var, good)


def _visible(rows: list, conf: Mapping[int, list[int]], clock: tuple, ru: int, ri: int, after_r, only=None):
    """Rule 1's per-read half, for read ``ri`` of the thread at position
    ``ru`` (``after_r`` reads it off a row) with clock row ``clock`` and
    write lists ``conf``: per writing thread position (among ``only``, if
    given) with visible conflicting writes, their index range ``[lo, end)``,
    and whether the initial write stays visible.  A read outside ``rows``
    has no successor."""
    last = {}
    for u, indices in conf.items():
        n = bisect_right(indices, clock[u])
        if n:
            last[u] = indices[n - 1]
    # the visible range of thread u starts at its last write below r unless
    # another thread's last write below r hides it, and ends at its first
    # event after r; below r only that last write can be visible
    ranges = {}
    for u in conf if only is None else only:
        indices, i = conf[u], last.get(u, 0)
        if i and not any(i <= rows[v][j - 1][u] for v, j in last.items() if v != u):
            lo = i
        else:
            lo = clock[u] + 1
        if indices[-1] < lo:
            continue
        if indices[-1] <= clock[u]:
            ranges[u] = (lo, lo + 1)
        else:
            ranges[u] = (lo, ri + 1 if u == ru else bisect_left(rows[u], ri, key=after_r) + 1)
    return ranges, not last


def visible(order: Closure, read: Event):
    """Rule 1's per-read half (see ``_visible``) for ``read`` at its
    program-order clock on ``order``, where ``_extend`` steps it first,
    keyed by thread id.  Raises VscError unless ``read`` is the next event
    of its thread after ``order``'s rows: with other new events, a check
    that ignored them could refute a realizable instance."""
    ru = order.pos.get(read.thread)
    if ru is None or read.index != len(order.rows[ru]) + 1:
        raise VscError(f"read {read.eid} is not the next event of its thread in the order")
    chain = order.rows[ru]
    prev = chain[-1] if chain else (0,) * len(order.threads)
    clock = prev[:ru] + (read.index - 1,) + prev[ru + 1 :]
    ranges, init = _visible(order.rows, order.writes_of.get(read.var, {}), clock, ru, read.index, itemgetter(ru))
    return {order.threads[u]: r for u, r in ranges.items()}, init


def extremes(ranges: Mapping[int, tuple[int, int]], good: Mapping[int, list[int]]):
    """Rule 1's per-group half: per thread of ``good``, sorted good write
    indices keyed as ``ranges`` is, the least and greatest of them in its
    visible range, as two ``(thread, index)`` lists: the extremes of Cl(r)."""
    mins, maxs = [], []
    for u, g in good.items():
        if u in ranges:
            lo, end = ranges[u]
            a = bisect_left(g, lo)
            b = bisect_left(g, end, a)
            if a < b:
                mins.append((u, g[a]))
                maxs.append((u, g[b - 1]))
    return mins, maxs


def _step(order: Closure, read, touched: list) -> None:
    """Apply the four rules for one read entry; the rows that new edges
    rewrite go to ``touched`` (see ``Closure.add``).

    The rules read only the read's own row and the rows and index lists of
    the conflicting writes.  Raises CycleError when rule 1 fails or an edge
    would close a cycle.
    """
    reid, ru, ri, after_r, gw, init_good, var, good = read
    threads, rows = order.threads, order.rows
    conf = order.writes_of.get(var, {})
    clock = rows[ru][ri - 1]
    ranges, init_visible = _visible(rows, conf, clock, ru, ri, after_r, good)
    mins, maxs = extremes(ranges, good)
    init_in_cl = init_good and init_visible
    if not mins and not init_in_cl:
        raise CycleError(f"no good write of {reid} stays visible")

    # rule 2: the least member goes before r; the initial write, when in
    # Cl(r), is least and adds nothing
    if not init_in_cl:
        for u, i in mins:
            if all(i <= rows[v][j - 1][u] for v, j in mins if v != u):
                if i > clock[u]:
                    order.add((threads[u], i), reid, touched)
                    clock = rows[ru][ri - 1]
                break
    # rule 3: bad writes below r end, per thread, in the last one
    bad_below = []
    for u, indices in conf.items():
        t = threads[u]
        n = bisect_right(indices, clock[u])
        while n and (t, indices[n - 1]) in gw:
            n -= 1
        if n:
            bad_below.append((u, indices[n - 1]))
    if not mins and bad_below:
        # Cl(r) is the initial write alone, which no write can precede
        raise CycleError(f"{reid} must read the initial write, but a bad write precedes it")
    for gu, gi in maxs:
        if all(j <= rows[gu][gi - 1][v] for v, j in maxs if v != gu):
            for u, i in bad_below:
                if i > rows[gu][gi - 1][u]:
                    order.add((threads[u], i), (threads[gu], gi), touched)
            break
    # rule 4: in each thread the conflicting writes after every
    # per-thread maximum of Cl(r) form a suffix; its first bad write
    # carries the edge.  Clocks grow along a thread, so the events after
    # a maximum (v, i) start at the first whose clock counts i events of v.
    for u, indices in conf.items():
        chain = rows[u]
        t = threads[u]
        lo = max((bisect_left(indices, bisect_left(chain, i, key=itemgetter(v)) + 1) for v, i in maxs), default=0)
        while lo < len(indices) and (t, indices[lo]) in gw:
            lo += 1
        if lo < len(indices) and ri > chain[indices[lo] - 1][ru]:
            order.add(reid, (t, indices[lo]), touched)


def _extend(base: Optional[Closure], inst: VscInstance) -> Closure:
    """The closure of ``inst`` started from ``base``, the closure of a
    relaxation of it (see ``closure``), or from program order.  Raises
    CycleError when there is none.

    New events get program-order rows and new writes join copies of their
    variables' write lists.  The worklist starts with the newly constrained
    reads and each read r of a variable with new writes of which some is not
    yet ordered after r.  A write ordered after r is never below r, never
    ends one of r's visible ranges and is never a rule-4 target that still
    lacks its edge, and rules 2 and 3 read only good writes and writes below
    r, so it changes no rule of r.  Edges only add predecessors, so it stays
    after r.  A step that adds edges puts back every read whose own row
    they rewrote and every read of a variable one of whose write rows they
    rewrote; no other read's rules can have changed.  It never puts back
    its own read r: rule 2 orders before r only the least member of Cl(r),
    which no good write of Cl(r) precedes, so Cl(r) does not change, and
    rules 3 and 4 add only edges from bad writes already below r and from
    r to a write that no member of Cl(r) follows, which change no row or
    range that r's rules read.
    """
    good_writes, chains = inst.good_writes, inst.by_thread
    if base is None:
        base = Closure(inst.threads)
    pos = base.pos
    for t in chains:
        if t not in pos:
            raise VscError(f"thread {t} is outside the order of the start")
    fresh = [reid for reid in good_writes if reid not in base.entries]
    grown = [t for t, chain in chains.items() if len(base.rows[pos[t]]) < len(chain)]
    if not fresh and not grown:
        return base  # ``inst`` is the start's own instance
    closed = base.copy()
    threads, rows, writes_of, entries, reads_of = (
        closed.threads, closed.rows, closed.writes_of, closed.entries, closed.reads_of
    )
    k = len(threads)
    # per variable whose write lists were copied, per thread position its
    # first new write: a read that any new write of the thread is not yet
    # ordered after, this one is not ordered after either
    new_writes: dict[str, dict[int, int]] = {}
    for t in grown:
        u = pos[t]
        chain = rows[u]
        for e in chains[t][len(chain) :]:
            prev = chain[-1] if chain else (0,) * k
            chain.append(prev[:u] + (e.index - 1,) + prev[u + 1 :])
            if e.kind == "W":
                if e.var not in new_writes:
                    new_writes[e.var] = {}
                    writes_of[e.var] = {v: indices.copy() for v, indices in writes_of.get(e.var, {}).items()}
                new_writes[e.var].setdefault(u, e.index)
                writes_of[e.var].setdefault(u, []).append(e.index)
    queue: deque[EventId] = deque()
    for var, first in new_writes.items():
        for reid in reads_of.get(var, ()):
            ru, ri = entries[reid][1:3]
            if any(rows[u][i - 1][ru] < ri for u, i in first.items()):
                queue.append(reid)
    new_reads: set[str] = set()  # variables whose read lists were copied
    for reid in fresh:
        r = chains[reid[0]][reid[1] - 1]
        entries[reid] = _read_entry(r, good_writes[reid], inst.init_eid(r.var), pos)
        if r.var not in new_reads:
            new_reads.add(r.var)
            reads_of[r.var] = list(reads_of.get(r.var, ()))
        reads_of[r.var].append(reid)
        queue.append(reid)

    queued = set(queue)
    touched: list[tuple[int, int, int]] = []
    while queue:
        reid = queue.popleft()
        queued.discard(reid)
        _step(closed, entries[reid], touched)
        again, rewritten = [], {}  # the rewritten reads, the variables of the rewritten writes
        for u, first, end in touched:
            for e in chains[threads[u]][first:end]:
                if e.kind == "W":
                    rewritten[e.var] = None
                elif e.eid in entries:
                    again.append(e.eid)
        for var in rewritten:
            again.extend(reads_of.get(var, ()))
        touched.clear()
        for r in again:
            if r != reid and r not in queued:
                queued.add(r)
                queue.append(r)
    return closed


def closure(inst: VscInstance, start: Optional[Closure] = None) -> Optional[Closure]:
    """Weakest order that every witness respects, or None when none can exist.

    Fixpoint over four per-read conditions on Cl(r), the good writes of r
    still visible under the current order (the initial write participates
    implicitly, ordered before every program event):

    1. Cl(r) must be non-empty;
    2. a least element of Cl(r) is ordered before r;
    3. with a greatest element w of Cl(r), every conflicting non-good write
       already before r moves before w;
    4. a conflicting non-good write that every member of Cl(r) precedes
       moves after r.

    The order is a ``Closure``, so no rule looks at every write.  In each
    thread u the visible writes of r are a range of u's conflicting writes:
    from u's last write below r, unless another thread's last write below r
    follows it, up to u's last write not after r.  Bisection on per-thread
    sorted write indices finds these bounds and, within them, the least and
    greatest member of Cl(r) in u.  Rules 2 and 3 compare only these
    per-thread extremes.  Rule 3 adds only each thread's last bad
    (conflicting, not good) write below r, and rule 4 only each thread's
    first bad write after every per-thread maximum of Cl(r); program order
    carries the edge to the other bad writes.  With k threads and W
    conflicting writes a step costs O(k^2 log W), plus a step per good write
    passed over while looking for a bad one and the clock rows that new
    edges update.

    The fixpoint is a worklist of reads: a read is stepped again only when
    another read's edge rewrote its own clock row or a row of one of its
    variable's writes, the only rows its rules read.  It constrains only the
    reads that ``inst.good_writes`` names; an unchecked instance may leave a
    read out, which then reads from anything.  Without ``start`` it begins
    at program order over the threads of ``inst`` with every constrained
    read on the worklist.  With ``start``, the closure of a relaxation of
    ``inst`` (per-thread prefixes of its events, some of its reads
    constrained by the same good writes), it begins at a copy of that
    closure, which every rule of the relaxation already holds in: the new
    events get program-order rows, and the worklist holds only the newly
    constrained reads and the reads of variables with new writes that not
    all of those writes already follow.  The order covers the threads of
    the start, which must include every thread of ``inst``.

    This is the one way into the fixpoint.  The explorer closes each node's
    trace with it, from the nearest ancestor's closure, and ``visible``
    reads rule 1's per-read half off the result for a read added to it.
    The tests check against the explicit-pairs reference in
    ``tests/reference_closure.py`` that the order is the one passes in
    event order reach from program order, and on the acceptance fuzz corpus
    that starting from a relaxation changes nothing.
    """
    try:
        return _extend(start, inst)
    except CycleError:
        return None


# ---------------------------------------------------------------------------
# The search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VscResult:
    """A witness or None, the popped states, and with closure on the
    closure of the instance, from which closures of larger instances can
    start."""

    witness: Optional[tuple[Event, ...]]
    states_processed: int
    closure: Optional[Closure] = None

    @property
    def realizable(self) -> bool:
        return self.witness is not None


def _validate_witness(inst: VscInstance, seq: tuple[Event, ...]) -> None:
    """Raise RuntimeError unless ``seq`` is a witness of ``inst``.

    Each event must be the instance's own next event of its thread, which
    rules out foreign events, duplicates and program-order violations; with
    as many events as the instance, that runs every thread to its end.
    """
    if len(seq) != len(inst.events):
        raise RuntimeError("witness is not a linearization of the instance events")
    by_thread = inst.by_thread
    counts: dict[int, int] = {}
    active: dict[str, EventId] = {}
    for e in seq:
        chain = by_thread.get(e.thread, ())
        i = counts.get(e.thread, 0)
        if i >= len(chain) or chain[i] is not e:
            raise RuntimeError(f"witness event {e!r} is not the next event of its thread")
        counts[e.thread] = i + 1
        if e.kind == "W":
            active[e.var] = e.eid
        else:
            src = active.get(e.var, inst.init_eid(e.var))
            if src not in inst.good_writes[e.eid]:
                raise RuntimeError(f"witness read {e.eid} reads a non-good write {src}")


def _marked(start, frames: list[list[int]], seq: list[Event], advance) -> set:
    """The witness states marked at ``_search``'s first dead end: those of
    the path ``seq`` from ``start`` and of the successors still waiting in
    its ``frames``, the states that a stack search would have pushed."""
    state = start
    memo = {state}
    for waiting, e in zip(frames, seq):
        memo.update(advance(state, t) for t in waiting)
        state = advance(state, e.thread)
        memo.add(state)
    return memo


def _search(inst: VscInstance, order: Optional[Closure], guided: bool, greedy: bool):
    """The witness search (see the module docstring): a witness or None,
    and the states processed.  Guided, successors run in the order of
    ``inst.events``, else in thread order.  A variable's held bit changes
    only when one of its events runs or is undone, since a read's needs are
    indices of writes of its variable."""
    good_writes, by_thread, n = inst.good_writes, inst.by_thread, len(inst.events)
    keys = {e.eid: i for i, e in enumerate(inst.events)} if guided else None
    reads_of: dict[str, list[EventId]] = {}
    for e in inst.events:
        if e.kind == "R":
            reads_of.setdefault(e.var, []).append(e.eid)
    ran = dict.fromkeys(inst.threads, 0)  # per thread id, the events run and the next one
    nxt = {t: chain[0] if chain else None for t, chain in by_thread.items()}
    if order is not None:
        rows, done = {t: order.rows[order.pos[t]] for t in nxt}, [0] * len(order.threads)
    active = {v: (0, i) for i, v in enumerate(inst.variables, 1)}
    held: dict[str, bool] = {}
    tpos, vpos = {t: u for u, t in enumerate(ran)}, {v: j for j, v in enumerate(active)}
    start = (0,) * len(ran), tuple(active.values())

    def pending(var: str) -> Iterable[GoodWrites]:  # those of the reads of var yet to run
        return (good_writes[r] for r in reads_of.get(var, ()) if r[1] > ran[r[0]])

    def advance(state, t: int):  # the witness state after the next event of thread t
        counts, acts = state
        u = tpos[t]
        e = by_thread[t][counts[u]]
        if e.kind == "W":
            j = vpos[e.var]
            acts = acts[:j] + (e.eid,) + acts[j + 1 :]
        return counts[:u] + (counts[u] + 1,) + counts[u + 1 :], acts

    seq: list[Event] = []
    before: list[EventId] = []  # per write of seq, its variable's active write before it
    frames: list[list[int]] = []  # per depth, the successors yet to run, last to run first
    memo: Optional[set] = None
    undone = 0  # the events undone; each ran as a state of its own
    while len(seq) < n:
        cands = []  # thread ids, which ascend with thread positions
        for t, e in nxt.items():
            if e is None or order is not None and not all(map(le, rows[t][ran[t]], done)):
                continue
            if e.kind == "R" and active[e.var] in good_writes[e.eid]:
                cands.append(t)
                if greedy:  # rule 1
                    cands = [t]
                    break
            elif e.kind == "W":
                if e.var not in held:
                    held[e.var] = any(all(ran[u] >= g[-1] for u, g in gw.indices.items()) for gw in pending(e.var))
                if not held[e.var]:
                    cands.append(t)
        if greedy and len(cands) > 1:  # rule 2; every candidate is a write
            for t in cands:
                aw, w = active[nxt[t].var], nxt[t].eid
                if aw[0] and not any(aw in gw or w in gw for gw in pending(nxt[t].var)):
                    cands = [t]
                    break
        if len(cands) > 1:  # into push-key order, last first
            if keys is None:
                cands.reverse()
            else:
                cands.sort(key=lambda u: keys[nxt[u].eid], reverse=True)
        frame = cands
        if memo is not None:
            state, frame = (tuple(ran.values()), tuple(active.values())), []
            for t in cands:
                s = advance(state, t)
                if s not in memo:
                    memo.add(s)
                    frame.append(t)
        elif not frame:
            memo = _marked(start, frames, seq, advance)
        frames.append(frame)
        while not frame:  # undo the last event
            frames.pop()
            if not frames:
                return None, len(seq) + undone + 1
            e = seq.pop()
            ran[e.thread] -= 1
            nxt[e.thread] = e
            if order is not None:
                done[order.pos[e.thread]] -= 1
            if e.kind == "W":
                active[e.var] = before.pop()
            held.pop(e.var, None)
            undone += 1
            frame = frames[-1]
        t = frame.pop()
        e = nxt[t]
        seq.append(e)
        ran[t] += 1
        chain = by_thread[t]
        nxt[t] = chain[ran[t]] if ran[t] < len(chain) else None
        if order is not None:
            done[order.pos[t]] += 1
        if e.kind == "W":
            before.append(active[e.var])
            active[e.var] = e.eid
        held.pop(e.var, None)
    return tuple(seq), n + undone + 1


def verify_sc(inst: VscInstance, options: SolverOptions = SolverOptions(), start: Optional[Closure] = None) -> VscResult:
    """Decide realizability; return a validated witness when one exists.

    The search is ``_search`` (see the module docstring); with ``guided``
    on, the order of ``inst.events`` guides it.
    ``states_processed`` counts the states that it ran: the empty prefix
    and one per event run, so ``n + 1`` when it never backtracks, within
    the module docstring's bound.  With closure on, the pre-pass is one
    call of ``closure(inst, start)``, whose order the result keeps.  A
    ``start`` that closes a relaxation of ``inst``, as an explorer node's
    closure does for the node's trace plus one read, lets the pre-pass
    extend that closure instead of closing ``inst`` from program order;
    ``start`` itself is never changed.
    """
    order = None
    if options.closure:
        order = closure(inst, start)
        if order is None:
            return VscResult(None, 0)
    witness, processed = _search(inst, order, options.guided, options.greedy)
    if witness is not None:
        _validate_witness(inst, witness)
    return VscResult(witness, processed, order)


# ---------------------------------------------------------------------------
# Instance text format
# ---------------------------------------------------------------------------
#
#   E <thread> <index> R|W <var> [<value>]
#   G <read-thread> <read-index> : <write-id>...
#
# Event ids are written <thread>.<index>; the initial write of a variable is
# thread 0 with the variable's ordinal (1-based, variables sorted by name).


def parse_instance(text: str) -> VscInstance:
    events: list[Event] = []
    good_writes: dict[EventId, frozenset[EventId]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "E":
                _, thread, index, kind, var, *rest = parts
                if kind not in ("R", "W"):
                    raise ValueError(f"bad kind {kind!r}")
                if len(rest) > (kind == "W"):
                    raise ValueError(f"too many tokens for a {kind} event")
                value = (int(rest[0]) if rest else 0) if kind == "W" else None
                events.append(Event(int(thread), int(index), kind, var, value))
            elif parts[0] == "G":
                reid = (int(parts[1]), int(parts[2]))
                if parts[3] != ":":
                    raise ValueError("expected ':'")
                if reid in good_writes:
                    raise ValueError(f"second good-writes record for read {reid[0]}.{reid[1]}")
                writes = []
                for tok in parts[4:]:
                    t, i = tok.split(".")
                    writes.append((int(t), int(i)))
                good_writes[reid] = frozenset(writes)
            else:
                raise ValueError(f"unknown record {parts[0]!r}")
        except (IndexError, ValueError) as exc:
            raise VscError(f"line {lineno}: {exc}") from None
    return VscInstance(tuple(events), good_writes)


def format_witness(seq: Iterable[Event]) -> str:
    return " ".join(f"{e.thread}.{e.index}" for e in seq)
