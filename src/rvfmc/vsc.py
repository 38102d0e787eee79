"""Realizability of an event set under a good-writes constraint.

An instance pairs a proper event set X (union of per-thread prefixes) with a
good-writes function mapping every read in X to a non-empty set of
conflicting writes (program writes of X, or the initial write of the read's
variable).  A *witness* is a linearization of X that respects program order
in which every read reads-from one of its good writes.

``verify_sc`` decides witness existence by a worklist search over witness
prefixes, memoized on the *witness state*: the per-thread event counts plus,
per variable, the thread of its active (latest) write.  Two prefixes with
equal witness state are extendable by exactly the same suffixes, so one of
them can be dropped.  The number of distinct states is at most
prod_t(n_t + 1) * (k + 1)^d, which bounds the search.

Three independently switchable accelerations:

* greedy extension -- an executable read is always taken immediately; an
  executable write that is useless to every remaining read may replace an
  equally useless active write without enumerating alternatives;
* closure -- a fixpoint pre-pass computing the weakest partial order every
  witness must refine; failure proves the instance unrealizable, success
  restricts the search to order-respecting extensions.  The order is a
  ``semantics.ClockOrder``, one vector clock per event, so a read costs
  O(k^2 log W) per pass over k threads and W conflicting writes instead of
  the O(W^2) of explicit pairs, and the search reads each event's
  predecessors off its clock;
* guided search -- with an auxiliary trace over the same events, the
  depth-first stack is fed candidates in reverse trace order so that they
  pop in trace order.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Sequence

from .program import Event, EventId
from .semantics import ClockOrder, CycleError

GoodWrites = Mapping[EventId, frozenset[EventId]]


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
    """Events X, good-writes function, and the induced per-thread program order.

    ``universe`` fixes the variable-ordinal scheme used for initial-write ids
    (thread 0, index = 1-based position among sorted variable names); it
    defaults to the variables occurring in the events.
    """

    events: tuple[Event, ...]
    good_writes: dict[EventId, frozenset[EventId]]
    universe: tuple[str, ...] = ()

    def __post_init__(self):
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
        for e in sorted(self.events, key=lambda e: e.eid):
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

    def init_event(self, var: str) -> Event:
        return Event(0, self.variables.index(var) + 1, "W", var, 0)

    @cached_property
    def event_of(self) -> dict[EventId, Event]:
        return {e.eid: e for e in self.events}

    def state_bound(self) -> int:
        """prod_t(n_t + 1) * (k + 1)^d: the limit on distinct witness states."""
        bound = 1
        for chain in self.by_thread.values():
            bound *= len(chain) + 1
        return bound * (len(self.threads) + 1) ** len(self.variables)


# ---------------------------------------------------------------------------
# Witness prefixes (public face of the search state, used directly in tests)
# ---------------------------------------------------------------------------


class WitnessState(tuple):
    """Hashable (per-thread counts, per-variable active-write thread) pair."""

    __slots__ = ()

    def __new__(cls, counts: tuple[int, ...], memory_map: tuple[int, ...]):
        return super().__new__(cls, (counts, memory_map))

    @property
    def counts(self) -> tuple[int, ...]:
        return self[0]

    @property
    def memory_map(self) -> tuple[int, ...]:
        return self[1]


@dataclass(frozen=True)
class WitnessPrefix:
    """A partial linearization plus its derived counts and active-write map."""

    instance: VscInstance
    sequence: tuple[Event, ...]
    counts: tuple[int, ...] = field(init=False)
    active: tuple[EventId, ...] = field(init=False)

    def __post_init__(self):
        inst = self.instance
        counts = {t: 0 for t in inst.threads}
        amap = {v: inst.init_eid(v) for v in inst.variables}
        for e in self.sequence:
            if e.index != counts[e.thread] + 1:
                raise VscError(f"sequence violates program order at {e!r}")
            counts[e.thread] += 1
            if e.kind == "W":
                amap[e.var] = e.eid
        object.__setattr__(self, "counts", tuple(counts[t] for t in inst.threads))
        object.__setattr__(self, "active", tuple(amap[v] for v in inst.variables))

    @property
    def state(self) -> WitnessState:
        return WitnessState(self.counts, tuple(eid[0] for eid in self.active))

    def executed(self, eid: EventId) -> bool:
        if eid[0] == 0:
            return True  # initial writes precede everything
        try:
            t = self.instance.threads.index(eid[0])
        except ValueError:
            return False
        return eid[1] <= self.counts[t]


def active_write(prefix: WitnessPrefix, var: str) -> Event:
    """The latest write of ``var`` in the prefix; the initial write if none."""
    eid = prefix.active[prefix.instance.variables.index(var)]
    if eid[0] == 0:
        return prefix.instance.init_event(var)
    return prefix.instance.event_of[eid]


def is_held(prefix: WitnessPrefix, var: str) -> bool:
    """True when some unexecuted read of ``var`` has all its good writes executed."""
    inst = prefix.instance
    for e in inst.events:
        if e.kind != "R" or e.var != var or prefix.executed(e.eid):
            continue
        if all(prefix.executed(w) for w in inst.good_writes[e.eid]):
            return True
    return False


def executable(prefix: WitnessPrefix, event: Event) -> bool:
    """Lower-set extension check plus the kind-specific condition.

    Reads need one of their good writes active; writes need their variable
    not held.
    """
    inst = prefix.instance
    if prefix.executed(event.eid):
        return False
    if event.index != 1 and not prefix.executed((event.thread, event.index - 1)):
        return False
    if event.kind == "R":
        return prefix.active[inst.variables.index(event.var)] in inst.good_writes[event.eid]
    return not is_held(prefix, event.var)


def _frontier(prefix: WitnessPrefix) -> list[Event]:
    inst = prefix.instance
    out = []
    for i, t in enumerate(inst.threads):
        chain = inst.by_thread[t]
        if prefix.counts[i] < len(chain):
            out.append(chain[prefix.counts[i]])
    return out


def _useless(prefix: WitnessPrefix, weid: EventId) -> bool:
    """True when no unexecuted read counts ``weid`` among its good writes."""
    inst = prefix.instance
    for e in inst.events:
        if e.kind == "R" and not prefix.executed(e.eid) and weid in inst.good_writes[e.eid]:
            return False
    return True


def greedy_extension(prefix: WitnessPrefix) -> Optional[Event]:
    """The forced greedy step, if one applies.

    Rule 1: any executable read is taken (lowest event id on ties).
    Rule 2: when the active write of some variable is useless to every
    remaining read, an equally useless executable write to that variable
    replaces it.  Returns None when neither rule fires.
    """
    inst = prefix.instance
    cands = [e for e in _frontier(prefix) if executable(prefix, e)]
    reads = [e for e in cands if e.kind == "R"]
    if reads:
        return min(reads, key=lambda e: e.eid)
    best = None
    for e in cands:
        aw = prefix.active[inst.variables.index(e.var)]
        if aw[0] == 0:
            continue  # rule 2 needs an active write in the sequence
        if _useless(prefix, aw) and _useless(prefix, e.eid):
            if best is None or e.eid < best.eid:
                best = e
    return best


def guided_order(candidates: Sequence[Event], aux: Sequence[Event]) -> list[Event]:
    """Candidates sorted by reverse position in ``aux`` so LIFO pops follow it."""
    pos = {e.eid: i for i, e in enumerate(aux)}
    return sorted(candidates, key=lambda e: pos[e.eid], reverse=True)


# ---------------------------------------------------------------------------
# Closure
# ---------------------------------------------------------------------------


def closure(inst: VscInstance) -> Optional[ClockOrder]:
    """Weakest order every witness refines, or None when none can exist.

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
    conflicting writes a read costs O(k^2 log W) per pass, plus a step per
    good write passed over while looking for a bad one and the clock rows
    that new edges update.  Rules, rule order, passes and the resulting
    order equal those of the explicit-pairs reference that the tests keep in
    ``tests/reference_closure.py``.
    """
    threads = inst.threads
    tpos = {t: u for u, t in enumerate(threads)}
    chains = [inst.by_thread[t] for t in threads]
    order = ClockOrder.program_order({t: len(chain) for t, chain in zip(threads, chains)})
    rows = order.rows

    # per variable and writing thread position: the sorted write indices
    writes_of: dict[str, dict[int, list[int]]] = {}
    for u, chain in enumerate(chains):
        for e in chain:
            if e.kind == "W":
                writes_of.setdefault(e.var, {}).setdefault(u, []).append(e.index)

    # per read: its position, its good writes, the conflicting writes, and
    # per writing thread the sorted indices of its good writes
    reads = []
    for r in inst.events:
        if r.kind != "R":
            continue
        gw = inst.good_writes[r.eid]
        good: dict[int, list[int]] = {}
        for t, i in gw:
            if t:
                good.setdefault(tpos[t], []).append(i)
        for g in good.values():
            g.sort()
        ru = tpos[r.thread]
        reads.append((r.eid, ru, r.index, itemgetter(ru), gw, inst.init_eid(r.var) in gw, writes_of.get(r.var, {}), good))

    def step(read) -> bool:
        reid, ru, ri, after_r, gw, init_good, conf, good = read
        clock = rows[ru][ri - 1]
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
            raise CycleError(f"no good write of {reid} stays visible")

        changed = False
        # rule 2: the least member goes before r; the initial write, when in
        # Cl(r), is least and adds nothing
        if not init_in_cl:
            for u, i in mins:
                if all(i <= rows[v][j - 1][u] for v, j in mins if v != u):
                    if i > clock[u]:
                        changed = order.add((threads[u], i), reid)
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
                        changed |= order.add((threads[u], i), (threads[gu], gi))
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
                changed |= order.add(reid, (t, indices[lo]))
        return changed

    try:
        while True:
            changed = False
            for read in reads:
                changed |= step(read)
            if not changed:
                break
    except CycleError:
        return None
    return order


# ---------------------------------------------------------------------------
# The search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VscResult:
    witness: Optional[tuple[Event, ...]]
    states_processed: int
    closure_order: Optional[ClockOrder] = None

    @property
    def realizable(self) -> bool:
        return self.witness is not None


def _validate_witness(inst: VscInstance, seq: tuple[Event, ...]) -> None:
    if sorted(e.eid for e in seq) != sorted(e.eid for e in inst.events):
        raise RuntimeError("witness is not a linearization of the instance events")
    counts = {t: 0 for t in inst.threads}
    active: dict[str, EventId] = {}
    for e in seq:
        if e.index != counts[e.thread] + 1:
            raise RuntimeError("witness violates program order")
        counts[e.thread] += 1
        if e.kind == "W":
            active[e.var] = e.eid
        else:
            src = active.get(e.var, inst.init_eid(e.var))
            if src not in inst.good_writes[e.eid]:
                raise RuntimeError(f"witness read {e.eid} reads a non-good write {src}")


def verify_sc(
    inst: VscInstance,
    options: SolverOptions = SolverOptions(),
    aux: Optional[Sequence[Event]] = None,
) -> VscResult:
    """Decide realizability; return a validated witness when one exists.

    The worklist is a LIFO stack of witness prefixes; a successor is pushed
    only when its witness state is new.  ``states_processed`` counts popped
    prefixes and never exceeds ``inst.state_bound()``.
    """
    closure_po = None
    if options.closure:
        closure_po = closure(inst)
        if closure_po is None:
            return VscResult(None, 0, None)

    threads = inst.threads
    tindex = {t: i for i, t in enumerate(threads)}
    variables = inst.variables
    vindex = {v: i for i, v in enumerate(variables)}
    chains = [inst.by_thread[t] for t in threads]
    n = len(inst.events)
    gw = inst.good_writes
    reads_of_var: dict[str, list[Event]] = {}
    for e in inst.events:
        if e.kind == "R":
            reads_of_var.setdefault(e.var, []).append(e)
    # cross-thread closure predecessors, the only ones not implied by counts:
    # (i, c) means thread position i must have run c events first
    cpred: dict[EventId, tuple[tuple[int, int], ...]] = {}
    if closure_po is not None:
        for e in inst.events:
            own = tindex[e.thread]
            clock = closure_po.clock(e.eid)
            cpred[e.eid] = tuple((i, c) for i, c in enumerate(clock) if c and i != own)

    aux_pos: Optional[dict[EventId, int]] = None
    if options.guided and aux is not None:
        aux_pos = {e.eid: i for i, e in enumerate(aux)}

    def executed(eid: EventId, counts: tuple[int, ...]) -> bool:
        return eid[0] == 0 or eid[1] <= counts[tindex[eid[0]]]

    def can_run(e: Event, counts: tuple[int, ...], active: tuple[EventId, ...]) -> bool:
        if cpred:
            for i, c in cpred[e.eid]:
                if counts[i] < c:
                    return False
        if e.kind == "R":
            return active[vindex[e.var]] in gw[e.eid]
        for r in reads_of_var.get(e.var, ()):
            if r.index > counts[tindex[r.thread]] and all(
                executed(w, counts) for w in gw[r.eid]
            ):
                return False  # variable held by r
        return True

    init_active = tuple(inst.init_eid(v) for v in variables)
    start = ((), (0,) * len(threads), init_active)
    done = {(start[1], tuple(a[0] for a in start[2]))}
    stack = [start]
    processed = 0

    while stack:
        seq, counts, active = stack.pop()
        processed += 1
        if len(seq) == n:
            _validate_witness(inst, seq)
            return VscResult(seq, processed, closure_po)

        cands = []
        for i, chain in enumerate(chains):
            if counts[i] < len(chain):
                e = chain[counts[i]]
                if can_run(e, counts, active):
                    cands.append(e)

        if options.greedy and cands:
            reads = [e for e in cands if e.kind == "R"]
            if reads:
                cands = [min(reads, key=lambda e: e.eid)]
            else:
                best = None
                for e in cands:
                    aw = active[vindex[e.var]]
                    if aw[0] != 0 and _useless_fast(inst, aw, counts, tindex, reads_of_var) and _useless_fast(
                        inst, e.eid, counts, tindex, reads_of_var
                    ):
                        if best is None or e.eid < best.eid:
                            best = e
                if best is not None:
                    cands = [best]

        if aux_pos is not None:
            push_order = sorted(cands, key=lambda e: aux_pos[e.eid], reverse=True)
        else:
            push_order = sorted(cands, key=lambda e: e.eid, reverse=True)

        for e in push_order:
            i = tindex[e.thread]
            ncounts = counts[:i] + (counts[i] + 1,) + counts[i + 1 :]
            if e.kind == "W":
                j = vindex[e.var]
                nactive = active[:j] + (e.eid,) + active[j + 1 :]
            else:
                nactive = active
            key = (ncounts, tuple(a[0] for a in nactive))
            if key not in done:
                done.add(key)
                stack.append((seq + (e,), ncounts, nactive))

    return VscResult(None, processed, closure_po)


def _useless_fast(inst, weid, counts, tindex, reads_of_var) -> bool:
    var = inst.event_of[weid].var if weid[0] != 0 else None
    pool = reads_of_var.get(var, ()) if var is not None else ()
    for r in pool:
        if r.index > counts[tindex[r.thread]] and weid in inst.good_writes[r.eid]:
            return False
    return True


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
    gw_lines: list[tuple[int, EventId, list[EventId]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "E":
                thread, index, kind, var = int(parts[1]), int(parts[2]), parts[3], parts[4]
                if kind not in ("R", "W"):
                    raise ValueError(f"bad kind {kind!r}")
                value = None
                if kind == "W":
                    value = int(parts[5]) if len(parts) > 5 else 0
                events.append(Event(thread, index, kind, var, value))
            elif parts[0] == "G":
                reid = (int(parts[1]), int(parts[2]))
                if parts[3] != ":":
                    raise ValueError("expected ':'")
                writes = []
                for tok in parts[4:]:
                    t, i = tok.split(".")
                    writes.append((int(t), int(i)))
                gw_lines.append((lineno, reid, writes))
            else:
                raise ValueError(f"unknown record {parts[0]!r}")
        except (IndexError, ValueError) as exc:
            raise VscError(f"line {lineno}: {exc}") from None
    good_writes = {reid: frozenset(ws) for _, reid, ws in gw_lines}
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
