"""Realizability of an event set under a good-writes constraint.

An instance pairs a proper event set X (union of per-thread prefixes) with a
good-writes function mapping every read in X to a non-empty set of
conflicting writes (program writes of X, or the initial write of the read's
variable).  A *witness* is a linearization of X that respects program order
in which every read reads-from one of its good writes.

``verify_sc`` decides witness existence by a depth-first search over witness
prefixes, memoized on the *witness state*: the per-thread event counts plus,
per variable, the thread of its active (latest) write.  Two prefixes with
equal witness state are extendable by exactly the same suffixes, so one of
them can be dropped.  The number of distinct states is at most
prod_t(n_t + 1) * (k + 1)^d, which bounds the search.  The search is a loop
over one set of step functions, ``_Steps``, which the unit tests drive too.

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
from dataclasses import InitVar, dataclass
from functools import cached_property
from operator import attrgetter, itemgetter
from typing import Iterable, Optional, Sequence

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

    def state_bound(self) -> int:
        """prod_t(n_t + 1) * (k + 1)^d: the limit on distinct witness states."""
        bound = 1
        for chain in self.by_thread.values():
            bound *= len(chain) + 1
        return bound * (len(self.threads) + 1) ** len(self.variables)


# ---------------------------------------------------------------------------
# Closure
# ---------------------------------------------------------------------------


def _prepare(inst: VscInstance, free: Optional[EventId] = None):
    """The program order of ``inst``, per variable and writing thread
    position the sorted write indices, and the entries of its reads other
    than ``free`` in event order."""
    threads = inst.threads
    chains = [inst.by_thread[t] for t in threads]
    order = ClockOrder.program_order({t: len(chain) for t, chain in zip(threads, chains)})
    writes_of: dict[str, dict[int, list[int]]] = {}
    for u, chain in enumerate(chains):
        for e in chain:
            if e.kind == "W":
                writes_of.setdefault(e.var, {}).setdefault(u, []).append(e.index)
    reads = [
        _read_entry(r, inst.good_writes[r.eid], inst.init_eid(r.var), order.pos, writes_of)
        for r in inst.events
        if r.kind == "R" and r.eid != free
    ]
    return order, writes_of, reads


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


def _step(order: ClockOrder, read) -> bool:
    """Apply the four rules for one read entry; True when an edge was added.

    Raises CycleError when rule 1 fails or an edge would close a cycle.
    """
    reid, ru, ri, after_r, gw, init_good, conf, good = read
    threads, rows = order.threads, order.rows
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


def _fixpoint(order: ClockOrder, reads) -> None:
    """Pass over ``reads`` in order until a whole pass adds no edge."""
    changed = True
    while changed:
        changed = False
        for read in reads:
            changed |= _step(order, read)


class ClosureBase:
    """What the closures of one read's instances share.

    The explorer asks the solver about instances that differ only in the good
    writes of one read: the same events, the same good writes for every other
    read, and one value group after another for ``read``.  Their shared part
    is the closure of those events with ``read`` left unconstrained, with the
    tables that go with it.  A base fills itself from the first instance that
    ``closure`` is given with it; every later instance must have the same
    events and the same good writes for the other reads.
    """

    __slots__ = ("read", "filled", "order", "event", "init", "writes_of", "reads", "at")

    def __init__(self, read: EventId):
        self.read = read
        self.filled = False
        self.order: Optional[ClockOrder] = None  # stays None when the other reads have no closure

    def _fill(self, inst: VscInstance) -> None:
        order, self.writes_of, self.reads = _prepare(inst, self.read)
        # the read's place among the read entries, for passes in event order
        reads = [e for e in inst.events if e.kind == "R"]
        self.at = next(i for i, e in enumerate(reads) if e.eid == self.read)
        self.event = reads[self.at]
        self.init = inst.init_eid(self.event.var)
        self.filled = True
        _fixpoint(order, self.reads)
        self.order = order

    def start(self, inst: VscInstance):
        """A fresh copy of the shared order and the entry of ``read`` under
        ``inst``; raises CycleError when the shared part has no closure."""
        if not self.filled:
            self._fill(inst)
        if self.order is None:
            raise CycleError(f"the other reads of {self.read} have no closure")
        order = self.order.copy()
        gw = inst.good_writes[self.read]
        return order, _read_entry(self.event, gw, self.init, order.pos, self.writes_of)


def closure(inst: VscInstance, base: Optional[ClosureBase] = None) -> Optional[ClockOrder]:
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
    conflicting writes a read costs O(k^2 log W) per pass, plus a step per
    good write passed over while looking for a bad one and the clock rows
    that new edges update.  Rules, rule order, passes and the resulting
    order equal those of the explicit-pairs reference that the tests keep in
    ``tests/reference_closure.py``.

    With ``base``, a ``ClosureBase`` for one read r of ``inst``, the fixpoint
    does not start from program order.  It starts from a copy of the base's
    order, already closed under the rules of every other read, and applies
    r's rules first.  When they add no edge the copy is the closure;
    otherwise full passes run as above.  The tests check that this gives the
    same order as the computation from program order on every read of the
    acceptance fuzz corpus.
    """
    try:
        if base is None:
            order, _, reads = _prepare(inst)
        else:
            order, read = base.start(inst)
            if not _step(order, read):
                return order
            reads = [*base.reads[: base.at], read, *base.reads[base.at :]]
        _fixpoint(order, reads)
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


class _Steps:
    """The step functions of the witness search on one instance.

    A search state is ``(counts, active)``: per thread position, how many of
    its events have run, and per variable, the id of its active (latest)
    write, the initial write's id before any.  ``order`` is the closure
    order, whose cross-thread predecessors every executable event needs;
    with ``aux``, candidates are pushed in reverse position in that trace
    instead of reverse event-id order.
    """

    __slots__ = ("tindex", "vindex", "chains", "gw", "reads_of_var", "cpred", "push_key", "start")

    def __init__(
        self,
        inst: VscInstance,
        order: Optional[ClockOrder] = None,
        aux: Optional[Sequence[Event]] = None,
    ):
        threads = inst.threads
        self.tindex = {t: i for i, t in enumerate(threads)}
        self.vindex = {v: i for i, v in enumerate(inst.variables)}
        self.chains = [inst.by_thread[t] for t in threads]
        self.gw = inst.good_writes
        self.reads_of_var: dict[str, list[Event]] = {}
        for e in inst.events:
            if e.kind == "R":
                self.reads_of_var.setdefault(e.var, []).append(e)
        # cross-thread closure predecessors, the only ones not implied by
        # counts: (i, c) means thread position i must have run c events first
        self.cpred: dict[EventId, tuple[tuple[int, int], ...]] = {}
        if order is not None:
            for e in inst.events:
                own = self.tindex[e.thread]
                clock = order.clock(e.eid)
                self.cpred[e.eid] = tuple((i, c) for i, c in enumerate(clock) if c and i != own)
        if aux is None:
            self.push_key = attrgetter("eid")
        else:
            pos = {e.eid: i for i, e in enumerate(aux)}
            self.push_key = lambda e: pos[e.eid]
        self.start = ((0,) * len(threads), tuple(inst.init_eid(v) for v in inst.variables))

    def advance(self, e: Event, counts: tuple[int, ...], active: tuple[EventId, ...]):
        """The state after running ``e``."""
        i = self.tindex[e.thread]
        counts = counts[:i] + (counts[i] + 1,) + counts[i + 1 :]
        if e.kind == "W":
            j = self.vindex[e.var]
            active = active[:j] + (e.eid,) + active[j + 1 :]
        return counts, active

    def held(self, var: str, counts: tuple[int, ...]) -> bool:
        """True when some unexecuted read of ``var`` has all its good writes executed."""
        tindex = self.tindex
        for r in self.reads_of_var.get(var, ()):
            if r.index > counts[tindex[r.thread]] and all(
                w[0] == 0 or w[1] <= counts[tindex[w[0]]] for w in self.gw[r.eid]
            ):
                return True
        return False

    def useless(self, var: str, weid: EventId, counts: tuple[int, ...]) -> bool:
        """True when no unexecuted read of ``var`` counts ``weid`` among its good writes."""
        tindex = self.tindex
        for r in self.reads_of_var.get(var, ()):
            if r.index > counts[tindex[r.thread]] and weid in self.gw[r.eid]:
                return False
        return True

    def executable(self, e: Event, counts: tuple[int, ...], active: tuple[EventId, ...]) -> bool:
        """True when ``e``, the next event of its thread, has its closure
        predecessors run and is a read with a good write active or a write
        whose variable is not held."""
        for i, c in self.cpred.get(e.eid, ()):
            if counts[i] < c:
                return False
        if e.kind == "R":
            return active[self.vindex[e.var]] in self.gw[e.eid]
        return not self.held(e.var, counts)

    def candidates(self, counts: tuple[int, ...], active: tuple[EventId, ...]) -> list[Event]:
        """The executable events of the frontier, the next event of each thread."""
        return [
            chain[c]
            for chain, c in zip(self.chains, counts)
            if c < len(chain) and self.executable(chain[c], counts, active)
        ]

    def greedy(
        self, cands: list[Event], counts: tuple[int, ...], active: tuple[EventId, ...]
    ) -> Optional[Event]:
        """The forced step among ``cands``, if one applies.

        Rule 1: an executable read is taken (lowest event id on ties).
        Rule 2: when the active write of some variable is useless to every
        remaining read, an equally useless executable write to that variable
        replaces it.  Returns None when neither rule fires.
        """
        reads = [e for e in cands if e.kind == "R"]
        if reads:
            return min(reads, key=attrgetter("eid"))
        best = None
        for e in cands:
            aw = active[self.vindex[e.var]]
            if aw[0] == 0:
                continue  # rule 2 needs an active write in the sequence
            if self.useless(e.var, aw, counts) and self.useless(e.var, e.eid, counts):
                if best is None or e.eid < best.eid:
                    best = e
        return best

    def push_order(self, cands: list[Event]) -> list[Event]:
        """``cands`` in reverse guidance order, so that LIFO pops follow it."""
        return sorted(cands, key=self.push_key, reverse=True)


def verify_sc(
    inst: VscInstance,
    options: SolverOptions = SolverOptions(),
    aux: Optional[Sequence[Event]] = None,
    base: Optional[ClosureBase] = None,
) -> VscResult:
    """Decide realizability; return a validated witness when one exists.

    The worklist is a LIFO stack of witness states, each with a pointer to
    the path that reached it; a successor is pushed only when its witness
    state is new.  ``states_processed`` counts popped states and never
    exceeds ``inst.state_bound()``.  With closure on, the pre-pass is one
    call of ``closure(inst, base)``: a ``base`` shared by the calls about
    one read's value groups lets each start from that read's shared closure.
    """
    order = None
    if options.closure:
        order = closure(inst, base)
        if order is None:
            return VscResult(None, 0)
    steps = _Steps(inst, order, aux if options.guided else None)
    n = len(inst.events)

    counts, active = steps.start
    done = {(counts, tuple(a[0] for a in active))}
    # a path is (last event, parent path), or None for the empty prefix
    stack = [(None, 0, counts, active)]
    processed = 0
    while stack:
        path, depth, counts, active = stack.pop()
        processed += 1
        if depth == n:
            seq = []
            while path is not None:
                e, path = path
                seq.append(e)
            witness = tuple(reversed(seq))
            _validate_witness(inst, witness)
            return VscResult(witness, processed)

        cands = steps.candidates(counts, active)
        if options.greedy and cands:
            forced = steps.greedy(cands, counts, active)
            if forced is not None:
                cands = [forced]
        for e in steps.push_order(cands):
            ncounts, nactive = steps.advance(e, counts, active)
            key = (ncounts, tuple(a[0] for a in nactive))
            if key not in done:
                done.add(key)
                stack.append(((e, path), depth + 1, ncounts, nactive))

    return VscResult(None, processed)


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
