"""Realizability of an event set under a good-writes constraint.

An instance pairs a proper event set X (union of per-thread prefixes) with a
good-writes function mapping every read in X to a non-empty set of
conflicting writes (program writes of X, or the initial write of the read's
variable).  A *witness* is a linearization of X that respects program order
in which every read reads-from one of its good writes.

``verify_sc`` decides witness existence by a depth-first search over witness
prefixes, memoized on the *witness state*: the per-thread event counts plus,
per variable, its active (latest) write.  Two prefixes with equal witness
state are extendable by exactly the same suffixes, so one of them can be
dropped.  The search is a loop over one set of step functions, ``_Steps``,
which the unit tests drive too.  ``_Steps`` compiles the instance to
integers once per call: threads and variables become positions, the
initial write of every variable is write code 0 and the program writes are
codes 1..W, and each read carries its good writes as a bitmask over codes.
A state is ``(counts, active)``, with ``active`` the write code per
variable, and it is its own memo key.  This merges exactly the states that
a key of per-variable writing *threads* merges: given ``counts``, the
active write of ``v`` by thread ``u`` is ``u``'s last write of ``v`` among
its first ``counts[u]`` events, so the code and the thread determine each
other.  The number of distinct states is therefore at most
prod_t(n_t + 1) * (k + 1)^d, which bounds the search.

Three independently switchable accelerations:

* greedy extension -- an executable read is always taken immediately; an
  executable write that is useless to every remaining read may replace an
  equally useless active write without enumerating alternatives;
* closure -- a fixpoint pre-pass computing the weakest partial order every
  witness must refine; failure proves the instance unrealizable, success
  restricts the search to order-respecting extensions.  The order is a
  ``semantics.ClockOrder``, one vector clock per event, so a read costs
  O(k^2 log W) per step over k threads and W conflicting writes instead of
  the O(W^2) of explicit pairs, and the search reads each event's
  predecessors off its clock.  A closure can start from the closure of a
  relaxation of its instance and step only the reads that the new events
  and constraints concern;
* guided search -- with an auxiliary trace over the same events, the
  depth-first stack is fed candidates in reverse trace order so that they
  pop in trace order.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import InitVar, dataclass
from functools import cached_property
from operator import attrgetter, itemgetter
from typing import Iterable, Mapping, Optional, Sequence, Union

from .program import Event, EventId
from .semantics import ClockOrder, CycleError


class VscError(ValueError):
    """Malformed instance: improper event set or unusable good-writes entry."""


@dataclass(frozen=True)
class SolverOptions:
    greedy: bool = True
    closure: bool = True
    guided: bool = True

    @classmethod
    def none(cls) -> "SolverOptions":
        return cls(greedy=False, closure=False, guided=False)


@dataclass(frozen=True)
class VscInstance:
    """Events X and the good-writes function, validated on construction.

    ``universe`` fixes the variable-ordinal scheme used for initial-write ids
    (thread 0, index = 1-based position among sorted variable names); it
    defaults to the variables occurring in the events.  ``check=False``
    skips the validation, for callers that build only well-formed instances.
    """

    events: tuple[Event, ...]
    good_writes: dict[EventId, frozenset[EventId]]
    universe: tuple[str, ...] = ()
    check: InitVar[bool] = True

    def __post_init__(self, check: bool):
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

    @cached_property
    def by_thread(self) -> dict[int, tuple[Event, ...]]:
        out: dict[int, list[Event]] = {}
        for e in sorted(self.events, key=attrgetter("thread", "index")):
            out.setdefault(e.thread, []).append(e)
        return {t: tuple(v) for t, v in out.items()}

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

    def state_bound(self) -> int:
        """prod_t(n_t + 1) * (k + 1)^d: the limit on distinct witness states."""
        bound = 1
        for chain in self.by_thread.values():
            bound *= len(chain) + 1
        return bound * (len(self.threads) + 1) ** len(self.variables)


# ---------------------------------------------------------------------------
# Closure
# ---------------------------------------------------------------------------


class Closure(ClockOrder):
    """A closed order with the tables that extending it needs.

    ``writes_of[var][u]`` lists the indices of the writes of ``var`` by the
    thread at position ``u``, sorted; ``entries`` maps each constrained read
    to what ``_step`` needs of it, and ``reads_of[var]`` lists the
    constrained reads of ``var``.  A closure is not changed after ``closure``
    returns it: extending one copies its rows and tables.
    """

    __slots__ = ("writes_of", "entries", "reads_of")

    def __init__(self, threads: Iterable[int]):
        super().__init__(threads)
        self.writes_of: dict[str, dict[int, list[int]]] = {}
        self.entries: dict[EventId, tuple] = {}
        self.reads_of: dict[str, list[EventId]] = {}

    def copy(self) -> "Closure":
        new = Closure.__new__(Closure)
        new.threads, new.pos = self.threads, self.pos
        new.rows = [chain.copy() for chain in self.rows]
        new.writes_of, new.entries, new.reads_of = dict(self.writes_of), dict(self.entries), dict(self.reads_of)
        return new


class Relaxation:
    """The closure of a relaxation of the instances it starts, filled on first use.

    The relaxation of an instance keeps the first ``counts[t]`` events of
    each thread ``t`` and constrains the reads among them that
    ``good_writes`` names, which must give them the instance's good writes.
    Its order covers the threads of ``counts``, which must include every
    thread of the instance.  The first ``closure`` or ``refutes`` call
    given the relaxation fills it from ``start``: a ``Closure`` of a
    relaxation of it, a ``Relaxation`` of one, or None for program order.
    An unfilled ``Relaxation`` start is passed over for the nearest filled
    one it starts from, so no closure is computed that no call asked for.
    """

    __slots__ = ("start", "counts", "good_writes", "filled", "order")

    def __init__(
        self,
        start: Union[Closure, "Relaxation", None],
        counts: Mapping[int, int],
        good_writes: Mapping[EventId, frozenset[EventId]],
    ):
        self.start = start
        self.counts = counts
        self.good_writes = good_writes
        self.filled = False
        self.order: Optional[Closure] = None  # stays None when the relaxation has no closure

    def closed(self, inst: VscInstance) -> Closure:
        """The closure of this relaxation of ``inst``; raises CycleError when it has none."""
        if not self.filled:
            self.filled = True
            base = self.start
            while isinstance(base, Relaxation) and not base.filled:
                base = base.start
            if isinstance(base, Relaxation):
                base = base.closed(inst)
            self.order = _extend(base, inst, self.counts, self.good_writes)
        if self.order is None:
            raise CycleError("the relaxation has no closure")
        return self.order

    def refutes(self, inst: VscInstance, read: Event) -> bool:
        """True when rule 1 fails for ``read`` on this relaxation's closure,
        which is where ``closure(inst, self)`` steps it first; the
        relaxation is filled from ``inst`` as by ``closed``.

        ``inst`` must be the relaxation plus ``read``, the next event of its
        thread: with other new events, a check that ignored them could
        refute a realizable instance.  The read is stepped at its
        program-order clock, its predecessor's row with its own entry at
        ``index - 1``.  A relaxation without a closure refutes every
        instance it relaxes.
        """
        counts = self.counts
        if len(inst.events) != sum(counts.values()) + 1 or read.index != counts.get(read.thread, -1) + 1:
            raise VscError(f"the instance is not the relaxation plus read {read.eid}")
        try:
            order = self.closed(inst)
        except CycleError:
            return True
        gw, init = inst.good_writes[read.eid], inst.init_eid(read.var)
        entry = _read_entry(read, gw, init, order.pos, order.writes_of)
        ru = entry[1]
        chain = order.rows[ru]
        prev = chain[-1] if chain else (0,) * len(order.threads)
        return _visible(order.rows, entry, prev[:ru] + (read.index - 1,) + prev[ru + 1 :]) is None


def _read_entry(r: Event, gw: frozenset[EventId], init: EventId, pos: dict[int, int], writes_of):
    """What ``_step`` needs of read ``r``: its id and position, its good
    writes, whether the initial write ``init`` is one of them, the
    conflicting writes, and per writing thread the sorted indices of its
    good writes."""
    good: dict[int, list[int]] = {}
    for t, i in gw:
        if t:
            good.setdefault(pos[t], []).append(i)
    for g in good.values():
        g.sort()
    ru = pos[r.thread]
    return (r.eid, ru, r.index, itemgetter(ru), gw, init in gw, writes_of.get(r.var, {}), good)


def _visible(rows: list, read, clock: tuple[int, ...]):
    """Rule 1 for one read entry whose clock row is ``clock``: None when no
    good write stays visible, else the per-thread least and greatest members
    of Cl(r), as ``(u, index)`` lists, and whether the initial write is in
    Cl(r).  A read outside ``rows`` has no event after it, so every write
    not below it may be visible."""
    _, ru, ri, after_r, _, init_good, conf, good = read
    last = {}
    for u, indices in conf.items():
        n = bisect_right(indices, clock[u])
        if n:
            last[u] = indices[n - 1]
    # per thread, the least and greatest member of Cl(r) there; the
    # visible range of thread u starts at its last write below r unless
    # another thread's last write below r hides it
    mins: list[tuple[int, int]] = []
    maxs: list[tuple[int, int]] = []
    for u, g in good.items():
        i = last.get(u, 0)
        if i and not any(i <= rows[v][j - 1][u] for v, j in last.items() if v != u):
            lo = i
        else:
            lo = clock[u] + 1
        a = bisect_left(g, lo)
        if a == len(g):
            continue
        if g[-1] <= clock[u]:
            b = a + 1  # only the last write below r can be visible
        else:
            # the first event of thread u after r ends the range
            end = ri + 1 if u == ru else bisect_left(rows[u], ri, key=after_r) + 1
            b = bisect_left(g, end)
        if a < b:
            mins.append((u, g[a]))
            maxs.append((u, g[b - 1]))
    init_in_cl = init_good and not last
    if not mins and not init_in_cl:
        return None
    return mins, maxs, init_in_cl


def _step(order: ClockOrder, read, touched: list) -> None:
    """Apply the four rules for one read entry; the rows that new edges
    rewrite go to ``touched`` (see ``ClockOrder.add``).

    The rules read only the read's own row and the rows and index lists of
    the conflicting writes.  Raises CycleError when rule 1 fails or an edge
    would close a cycle.
    """
    reid, ru, ri, _, gw, _, conf, _ = read
    threads, rows = order.threads, order.rows
    clock = rows[ru][ri - 1]
    cl = _visible(rows, read, clock)
    if cl is None:
        raise CycleError(f"no good write of {reid} stays visible")
    mins, maxs, init_in_cl = cl

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
    # carries the edge
    for u, indices in conf.items():
        chain = rows[u]
        t = threads[u]
        lo = bisect_left(indices, True, key=lambda w: all(i <= chain[w - 1][v] for v, i in maxs))
        while lo < len(indices) and (t, indices[lo]) in gw:
            lo += 1
        if lo < len(indices) and ri > chain[indices[lo] - 1][ru]:
            order.add(reid, (t, indices[lo]), touched)


def _extend(
    base: Optional[Closure],
    inst: VscInstance,
    counts: Optional[Mapping[int, int]] = None,
    good_writes: Optional[Mapping[EventId, frozenset[EventId]]] = None,
) -> Closure:
    """The closure of ``inst``, or of the relaxation of it that ``counts``
    and ``good_writes`` describe (see ``Relaxation``), started from ``base``,
    the closure of a relaxation of that, or from program order.  Raises
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
    rewrote; no other read's rules can have changed.
    """
    if good_writes is None:
        good_writes = inst.good_writes
    chains = inst.by_thread
    if counts is None:
        counts = {t: len(chain) for t, chain in chains.items()}
    if base is None:
        base = Closure(sorted(counts))
    pos = base.pos
    for t in chains:
        if t not in pos:
            raise VscError(f"thread {t} is outside the order of the start")
    fresh = [reid for reid in good_writes if reid not in base.entries and reid[1] <= counts.get(reid[0], 0)]
    grown = [t for t, chain in chains.items() if len(base.rows[pos[t]]) < min(len(chain), counts.get(t, 0))]
    if not fresh and not grown:
        return base  # the relaxation is the start's own instance
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
        for e in chains[t][len(chain) : counts[t]]:
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
        conf = writes_of[var]
        for reid in reads_of.get(var, ()):
            entry = entries[reid]
            entries[reid] = (*entry[:6], conf, entry[7])
            ru, ri = entry[1], entry[2]
            if any(rows[u][i - 1][ru] < ri for u, i in first.items()):
                queue.append(reid)
    new_reads: set[str] = set()  # variables whose read lists were copied
    for reid in fresh:
        r = chains[reid[0]][reid[1] - 1]
        entries[reid] = _read_entry(r, good_writes[reid], inst.init_eid(r.var), pos, writes_of)
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
        again = []
        for u, first, end in touched:
            t = threads[u]
            again.extend((t, i) for i in range(first + 1, end + 1) if (t, i) in entries)
            for var, conf in writes_of.items():
                indices = conf.get(u)
                if indices:
                    a = bisect_right(indices, first)
                    if a < len(indices) and indices[a] <= end:
                        again.extend(reads_of.get(var, ()))
        touched.clear()
        for reid in again:
            if reid not in queued:
                queued.add(reid)
                queue.append(reid)
    return closed


def closure(
    inst: VscInstance, start: Union[Closure, Relaxation, None] = None
) -> Optional[Closure]:
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

    The order is a ``ClockOrder``, so no rule looks at every write.  In each
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
    an edge rewrote its own clock row or a row of one of its variable's
    writes, the only rows its rules read.  Without ``start`` it begins at
    program order with every read on it.  With ``start``, the closure of a
    relaxation of ``inst`` (per-thread prefixes of its events, some of its
    reads constrained by the same good writes), it begins at a copy of that
    closure, which every rule of the relaxation already holds in: the new
    events get program-order rows, and the worklist holds only the newly
    constrained reads and the reads of variables with new writes that not
    all of those writes already follow.  A ``Relaxation`` start is filled
    by its first call, or by ``Relaxation.refutes``, which decides rule 1
    for a read added to the relaxation without copying it.  The order
    covers the threads of the start, which must include every thread of
    ``inst``.  The tests check against the explicit-pairs reference in
    ``tests/reference_closure.py`` that the order is the one passes in
    event order reach from program order, and on the acceptance fuzz corpus
    that starting from a relaxation changes nothing.
    """
    try:
        base = start.closed(inst) if isinstance(start, Relaxation) else start
        return _extend(base, inst)
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


class _Steps:
    """The step functions of the witness search, compiled to integers once
    per ``verify_sc`` call.

    Threads are named by their position ``u`` in ``inst.threads`` and
    variables by their index ``j`` in ``inst.variables``.  Write code 0 is
    the initial write of every variable, and codes 1..W are the instance's
    program writes.  ``chains[u][i]`` is the record of the (i+1)-th event of
    thread ``u``: ``(is_read, j, bits, cpred, key, event)``, where ``bits``
    is a read's good-write bitmask (bit c set when write c is good) or a
    write's code, ``cpred`` lists closure predecessors as ``(v, c)``, thread
    ``v`` must have run ``c`` events first, and ``key`` is the push key.
    ``reads_of[j]`` holds ``(u, index, need)`` for each read of variable j,
    where ``need`` pairs each writing thread with the index of its last good
    write, and ``readers[c]`` the ``(u, index)`` of the reads that count
    write c good; ``lengths[u]`` is the number of events of thread ``u``.

    A search state is ``(counts, active)``: per thread, how many of its
    events have run, and per variable, the code of its active (latest)
    write.  The state is the memo key; given ``counts``, the code of an
    active write and the thread that wrote it determine each other (see the
    module docstring), so this merges the same prefixes as a key of writing
    threads.  ``cpred`` holds only the components of an event's closure
    clock that grew since its thread's previous event.  The others held
    when that event ran, since it was executable then, and counts never
    decrease along a path; an event is asked about only when it is next in
    its thread, after that previous event, so ``candidates`` answers as if
    it compared the whole clock.  With ``aux``, the push key is the
    event's position in that trace; without, it is the thread position,
    which orders a frontier, one event per thread, by event id.
    """

    __slots__ = ("chains", "lengths", "reads_of", "readers", "start")

    def __init__(
        self,
        inst: VscInstance,
        order: Optional[ClockOrder] = None,
        aux: Optional[Sequence[Event]] = None,
    ):
        threads, variables, by_thread = inst.threads, inst.variables, inst.by_thread
        tpos = {t: u for u, t in enumerate(threads)}
        vpos = {v: j for j, v in enumerate(variables)}
        code: dict[EventId, int] = {}
        for t in threads:
            for e in by_thread[t]:
                if e.kind == "W":
                    code[t, e.index] = len(code) + 1
        if order is not None:
            # the order may cover threads without events here, so its clock
            # positions map to this instance's by thread id
            at = [tpos.get(t) for t in order.threads]
        keys = None if aux is None else {(e.thread, e.index): i for i, e in enumerate(aux)}
        good_writes = inst.good_writes
        self.reads_of: list[list[tuple]] = [[] for _ in variables]
        self.readers: list[list[tuple[int, int]]] = [[] for _ in range(len(code) + 1)]
        self.chains: list[list[tuple]] = []
        for u, t in enumerate(threads):
            chain = []
            if order is not None:
                ou = order.pos[t]
                clocks = order.rows[ou]
                # the own entry grows by one from event to event (from -1
                # to 0 at the first), so a larger growth of the clock's sum
                # means that another entry grew
                prev, total = (0,) * len(at), -1
                others = [v for v in range(len(at)) if v != ou]
            for i, e in enumerate(by_thread[t]):
                cpred = ()
                if order is not None:
                    clock = clocks[i]
                    s = sum(clock)
                    if s > total + 1:
                        cpred = tuple([(at[v], clock[v]) for v in others if clock[v] != prev[v]])
                    prev, total = clock, s
                key = u if keys is None else keys[t, e.index]
                j = vpos[e.var]
                if e.kind == "W":
                    chain.append((False, j, code[t, e.index], cpred, key, e))
                    continue
                bits = 0
                need: dict[int, int] = {}
                for w in good_writes[t, e.index]:
                    if w[0]:
                        c = code[w]
                        bits |= 1 << c
                        self.readers[c].append((u, e.index))
                        v = tpos[w[0]]
                        need[v] = max(need.get(v, 0), w[1])
                    else:
                        bits |= 1
                self.reads_of[j].append((u, e.index, tuple(need.items())))
                chain.append((True, j, bits, cpred, key, e))
            self.chains.append(chain)
        self.lengths = tuple(map(len, self.chains))
        self.start = ((0,) * len(threads), (0,) * len(variables))

    def advance(self, u: int, counts: tuple[int, ...], active: tuple[int, ...]):
        """The state after running the next event of thread ``u``."""
        read, j, bits, _, _, _ = self.chains[u][counts[u]]
        counts = counts[:u] + (counts[u] + 1,) + counts[u + 1 :]
        if not read:
            active = active[:j] + (bits,) + active[j + 1 :]
        return counts, active

    def held(self, j: int, counts: tuple[int, ...]) -> bool:
        """True when some unexecuted read of variable ``j`` has all its good writes executed."""
        for u, i, need in self.reads_of[j]:
            if i > counts[u]:
                for v, n in need:
                    if counts[v] < n:
                        break
                else:
                    return True
        return False

    def useless(self, c: int, counts: tuple[int, ...]) -> bool:
        """True when no unexecuted read counts write ``c`` among its good writes."""
        for u, i in self.readers[c]:
            if i > counts[u]:
                return False
        return True

    def candidates(self, counts: tuple[int, ...], active: tuple[int, ...]) -> list[int]:
        """The threads whose next event is executable, in position order: it
        has its closure predecessors run, and it is a read with a good write
        active, a bitmask test, or a write whose variable is not held."""
        chains = self.chains
        out = []
        for u, (n, c) in enumerate(zip(self.lengths, counts)):
            if c < n:
                read, j, bits, cpred, _, _ = chains[u][c]
                for v, k in cpred:
                    if counts[v] < k:
                        break
                else:
                    if read:
                        if (bits >> active[j]) & 1:
                            out.append(u)
                    elif not self.held(j, counts):
                        out.append(u)
        return out

    def greedy(self, cands: list[int], counts: tuple[int, ...], active: tuple[int, ...]) -> Optional[int]:
        """The forced step among ``cands``, if one applies.

        Rule 1: an executable read is taken, the first in position order,
        which has the least event id.  Rule 2: when the active write of some
        variable is useless to every remaining read, an equally useless
        executable write to that variable replaces it (the first such in
        position order).  Returns None when neither rule fires.
        """
        chains = self.chains
        for u in cands:
            if chains[u][counts[u]][0]:
                return u
        for u in cands:
            _, j, c, _, _, _ = chains[u][counts[u]]
            aw = active[j]
            # rule 2 needs an active write in the sequence, not the initial one
            if aw and self.useless(aw, counts) and self.useless(c, counts):
                return u
        return None

    def push_order(self, cands: list[int], counts: tuple[int, ...]) -> list[int]:
        """``cands`` in reverse push-key order, so that LIFO pops follow it."""
        if len(cands) < 2:
            return cands
        chains = self.chains
        return sorted(cands, key=lambda u: chains[u][counts[u]][4], reverse=True)

    def witness(self, path) -> tuple[Event, ...]:
        """The events of ``path``, a chain of ``(u, parent)`` ending in None
        for the empty prefix, from the start."""
        order = []
        while path is not None:
            u, path = path
            order.append(u)
        ran = [0] * len(self.chains)
        seq = []
        for u in reversed(order):
            seq.append(self.chains[u][ran[u]][5])
            ran[u] += 1
        return tuple(seq)


def verify_sc(
    inst: VscInstance,
    options: SolverOptions = SolverOptions(),
    aux: Optional[Sequence[Event]] = None,
    start: Union[Closure, Relaxation, None] = None,
) -> VscResult:
    """Decide realizability; return a validated witness when one exists.

    The worklist is a LIFO stack of witness states, each with a pointer to
    the path that reached it; a successor is pushed only when its witness
    state is new.  ``states_processed`` counts popped states and never
    exceeds ``inst.state_bound()``.  With closure on, the pre-pass is one
    call of ``closure(inst, start)``, whose order the result keeps: a
    ``start`` that closes a relaxation of ``inst`` lets the pre-pass extend
    that closure instead of closing ``inst`` from program order.
    """
    order = None
    if options.closure:
        order = closure(inst, start)
        if order is None:
            return VscResult(None, 0)
    steps = _Steps(inst, order, aux if options.guided else None)
    n = len(inst.events)

    done = {steps.start}
    # a path is (thread position, parent path), or None for the empty prefix
    stack = [(None, 0, steps.start)]
    processed = 0
    while stack:
        path, depth, (counts, active) = stack.pop()
        processed += 1
        if depth == n:
            witness = steps.witness(path)
            _validate_witness(inst, witness)
            return VscResult(witness, processed, order)

        cands = steps.candidates(counts, active)
        if options.greedy and cands:
            forced = steps.greedy(cands, counts, active)
            if forced is not None:
                cands = [forced]
        for u in steps.push_order(cands, counts):
            state = steps.advance(u, counts, active)
            if state not in done:
                done.add(state)
                stack.append(((u, path), depth + 1, state))

    return VscResult(None, processed, order)


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


def format_instance(inst: VscInstance) -> str:
    lines = []
    for e in sorted(inst.events, key=lambda e: e.eid):
        v = f" {e.value}" if e.kind == "W" else ""
        lines.append(f"E {e.thread} {e.index} {e.kind} {e.var}{v}")
    for reid in sorted(inst.good_writes):
        ws = " ".join(f"{t}.{i}" for t, i in sorted(inst.good_writes[reid]))
        lines.append(f"G {reid[0]} {reid[1]} : {ws}")
    return "\n".join(lines) + "\n"


def format_witness(seq: Iterable[Event]) -> str:
    return " ".join(f"{e.thread}.{e.index}" for e in seq)
