"""Ground-truth engines: exhaustive schedule enumeration and brute-force realizability.

Everything here is deliberately heuristic-free so it can stand as an
independent oracle for the explorer and the witness solver.  The DFS engine
mutates one interpreter state in place with undo records, which keeps full
enumeration of six-figure schedule spaces within desk-scale budgets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .program import Event, EventId, Execution, InterpreterError, Program, _advance, _pending
from .semantics import maz_key, rf_key, rvf_key
from .vsc import VscInstance


class BudgetExceeded(RuntimeError):
    """The schedule-step budget ran out before enumeration finished."""


# ---------------------------------------------------------------------------
# Mutable interpreter with undo
# ---------------------------------------------------------------------------


class _Engine:
    # thread state slots: [pc, env, access count, pending event, lock var or None]

    def __init__(self, program: Program):
        self.program = program
        self.memory = {v: 0 for v in program.globals}
        self.holders: dict[str, Optional[int]] = {m: None for m in program.mutexes}
        self.events: list[Event] = []
        self.values: list[int] = []
        self.violations: list[str] = []
        self.states = []
        for thread in program.threads:
            env: dict[str, int] = {}
            pc = _advance(thread, 0, env, self.violations)
            pending = _pending(thread, pc, env, 0)
            lockvar = thread.ops[pc][1] if pending is not None and thread.ops[pc][0] == "lock" else None
            self.states.append([pc, env, 0, pending, lockvar])

    def enabled(self) -> list[Event]:
        out = []
        holders = self.holders
        for st in self.states:
            e = st[3]
            if e is None or (st[4] is not None and holders[st[4]] is not None):
                continue
            out.append(e)
        return out

    def deadlocked(self) -> bool:
        return any(st[3] is not None for st in self.states)

    def apply(self, event: Event):
        tid = event.thread
        thread = self.program.threads[tid - 1]
        st = self.states[tid - 1]
        pc, env, acc, pending, lockvar = st
        op = thread.ops[pc]
        tag = op[0]

        mem_undo = None  # old value when memory was touched
        hold_undo = None  # 1-tuple of the old holder when holders was touched
        if tag == "write":
            mem_undo = (self.memory[event.var],)
            self.memory[event.var] = event.value
            self.values.append(event.value)
        elif tag == "read":
            v = self.memory[event.var]
            env = dict(env)
            env[op[2]] = v
            self.values.append(v)
        elif tag == "lock":
            hold_undo = (self.holders[event.var],)
            self.holders[event.var] = tid
            self.values.append(self.memory[event.var])
        else:  # unlock; mutex memory stays 0 throughout, no memory undo needed
            if self.holders[event.var] != tid:
                raise InterpreterError(
                    f"thread {thread.name} releases mutex {event.var!r} it does not hold"
                )
            hold_undo = (self.holders[event.var],)
            self.holders[event.var] = None
            self.values.append(0)

        old_env = st[1]
        if tag != "read":
            env = dict(env)
        nviol = len(self.violations)
        npc = _advance(thread, pc + 1, env, self.violations)
        acc1 = acc + 1
        npending = _pending(thread, npc, env, acc1)
        st[0] = npc
        st[1] = env
        st[2] = acc1
        st[3] = npending
        st[4] = (
            thread.ops[npc][1]
            if npending is not None and thread.ops[npc][0] == "lock"
            else None
        )
        self.events.append(event)
        return (tid, pc, old_env, acc, pending, lockvar, nviol, mem_undo, hold_undo, event.var)

    def undo(self, token) -> None:
        tid, pc, env, acc, pending, lockvar, nviol, mem_undo, hold_undo, var = token
        st = self.states[tid - 1]
        st[0] = pc
        st[1] = env
        st[2] = acc
        st[3] = pending
        st[4] = lockvar
        del self.violations[nviol:]
        if mem_undo is not None:
            self.memory[var] = mem_undo[0]
        if hold_undo is not None:
            self.holders[var] = hold_undo[0]
        self.events.pop()
        self.values.pop()

    def freeze(self) -> Execution:
        events = tuple(self.events)
        values = {e.eid: v for e, v in zip(events, self.values)}
        return Execution(
            self.program, events, values, frozenset(self.violations), self.deadlocked()
        )


class _Budget:
    __slots__ = ("left",)

    def __init__(self, steps: int):
        self.left = steps

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise BudgetExceeded("schedule budget exhausted")


def iter_maximal_traces(program: Program, budget: int = 10_000_000) -> Iterator[Execution]:
    """Yield every maximal trace reachable by any scheduler, in DFS order."""
    engine = _Engine(program)
    b = _Budget(budget)

    def gen(engine: _Engine) -> Iterator[Execution]:
        enabled = engine.enabled()
        if not enabled:
            yield engine.freeze()
            return
        for e in enabled:
            b.spend()
            token = engine.apply(e)
            yield from gen(engine)
            engine.undo(token)

    yield from gen(engine)


def enumerate_maximal_traces(program: Program, budget: int = 10_000_000) -> list[Execution]:
    return list(iter_maximal_traces(program, budget))


# ---------------------------------------------------------------------------
# Equivalence-class censuses
# ---------------------------------------------------------------------------

_KEY_FN = {"rvf": rvf_key, "rf": rf_key, "maz": maz_key}


@dataclass
class CensusResult:
    equivalence: str
    count: int
    representatives: dict


def census(traces: Iterable[Execution], equivalence: str) -> CensusResult:
    """Count distinct equivalence keys over the given traces."""
    key_fn = _KEY_FN[equivalence]
    reps: dict = {}
    for t in traces:
        k = key_fn(t)
        if k not in reps:
            reps[k] = t
    return CensusResult(equivalence, len(reps), reps)


@dataclass
class ClassCount:
    maximal_traces: int
    classes: dict[str, int]
    assertion_violations: list[str]
    deadlocks: int

    def csv_lines(self) -> list[str]:
        """``equivalence,count`` lines in a fixed order, for golden files."""
        return [f"{eq},{self.classes[eq]}" for eq in sorted(self.classes)]


def count_classes(
    program: Program, equivalences: Iterable[str] = ("rvf", "rf", "maz"), budget: int = 10_000_000
) -> ClassCount:
    """Streaming census over all maximal traces, without materializing them.

    Reads-from pairs, per-variable write orders, and causal predecessor
    bitmasks are maintained incrementally along the DFS, so the per-trace
    cost stays linear in trace length.  Same answers as ``census`` over
    ``enumerate_maximal_traces``; that equality is a test obligation.
    """
    eqs = tuple(equivalences)
    want_rvf = "rvf" in eqs
    want_rf = "rf" in eqs or "maz" in eqs
    want_maz = "maz" in eqs
    engine = _Engine(program)
    b = _Budget(budget)
    globs = program.globals
    ordinal = {v: i + 1 for i, v in enumerate(globs)}
    states = engine.states

    sets: dict[str, set] = {eq: set() for eq in eqs}
    violations: set[str] = set()
    stats = {"total": 0, "deadlocks": 0}

    # incremental per-prefix structures; the event-id set of a prefix is
    # exactly its per-thread counts vector, so no per-leaf sorting is needed
    rf_pairs: list[tuple[EventId, EventId]] = []
    write_orders: dict[str, list[EventId]] = {v: [] for v in globs}
    active: dict[str, Optional[EventId]] = {v: None for v in globs}
    masks: list[int] = []  # causal predecessor bitmask per position
    pos_of: dict[EventId, int] = {}
    last_pos: dict[int, int] = {}

    def push(e: Event) -> tuple:
        eid = (e.thread, e.index)
        old_active = None
        old_last = None
        if e.kind == "W":
            old_active = active[e.var]
            active[e.var] = eid
            write_orders[e.var].append(eid)
        else:
            src = active[e.var]
            rf_pairs.append((eid, src if src is not None else (0, ordinal[e.var])))
        if want_rvf:
            pos = len(masks)
            m = 1 << pos
            old_last = last_pos.get(e.thread)
            if old_last is not None:
                m |= masks[old_last] | (1 << old_last)
            if e.kind == "R":
                src = active[e.var]
                if src is not None:
                    sp = pos_of[src]
                    m |= masks[sp] | (1 << sp)
            masks.append(m)
            pos_of[eid] = pos
            last_pos[e.thread] = pos
        return (e, eid, old_active, old_last)

    def pop(token) -> None:
        e, eid, old_active, old_last = token
        if e.kind == "W":
            write_orders[e.var].pop()
            active[e.var] = old_active
        else:
            rf_pairs.pop()
        if want_rvf:
            masks.pop()
            del pos_of[eid]
            if old_last is None:
                del last_pos[e.thread]
            else:
                last_pos[e.thread] = old_last

    def visit() -> None:
        stats["total"] += 1
        blocked = False
        for st in states:
            if st[3] is not None:
                blocked = True
                break
        if blocked:
            stats["deadlocks"] += 1
        if engine.violations:
            violations.update(engine.violations)
        ev_key = tuple(st[2] for st in states)
        if want_rf:
            rfk = tuple(sorted(rf_pairs))
            if "rf" in sets:
                sets["rf"].add((ev_key, rfk))
            if want_maz:
                orders = tuple(tuple(write_orders[v]) for v in globs)
                sets["maz"].add((ev_key, rfk, orders))
        if want_rvf:
            events = engine.events
            vkey = tuple(
                v for _, v in sorted(
                    ((e.thread, e.index), v) for e, v in zip(events, engine.values)
                )
            )
            rpos = sorted(
                (pos_of[(e.thread, e.index)], (e.thread, e.index))
                for e in events
                if e.kind == "R"
            )
            ro = []
            for i in range(len(rpos)):
                pi, ei = rpos[i]
                for j in range(i + 1, len(rpos)):
                    pj, ej = rpos[j]
                    if masks[pj] >> pi & 1:
                        ro.append((ei, ej))
            sets["rvf"].add((ev_key, vkey, tuple(sorted(ro))))

    apply_, undo_, enabled_ = engine.apply, engine.undo, engine.enabled

    def walk() -> None:
        enabled = enabled_()
        if not enabled:
            visit()
            return
        for e in enabled:
            b.spend()
            token = apply_(e)
            itoken = push(e)
            walk()
            pop(itoken)
            undo_(token)

    walk()
    return ClassCount(
        stats["total"],
        {eq: len(sets[eq]) for eq in eqs},
        sorted(violations),
        stats["deadlocks"],
    )


# ---------------------------------------------------------------------------
# Brute-force realizability
# ---------------------------------------------------------------------------


def iter_vsc_witnesses(inst: VscInstance) -> Iterator[tuple[Event, ...]]:
    """All witnesses of the instance, by plain enumeration of program-order
    linearizations with reads-from pruning."""
    chains = [inst.by_thread[t] for t in inst.threads]
    counts = [0] * len(chains)
    active = {v: inst.init_eid(v) for v in inst.variables}
    seq: list[Event] = []
    n = len(inst.events)

    def rec() -> Iterator[tuple[Event, ...]]:
        if len(seq) == n:
            yield tuple(seq)
            return
        for i, chain in enumerate(chains):
            if counts[i] >= len(chain):
                continue
            e = chain[counts[i]]
            if e.kind == "R":
                if active[e.var] not in inst.good_writes[e.eid]:
                    continue
                counts[i] += 1
                seq.append(e)
                yield from rec()
                seq.pop()
                counts[i] -= 1
            else:
                old = active[e.var]
                active[e.var] = e.eid
                counts[i] += 1
                seq.append(e)
                yield from rec()
                seq.pop()
                counts[i] -= 1
                active[e.var] = old

    return rec()


def brute_force_vsc(inst: VscInstance, limit: int = 12) -> Optional[tuple[Event, ...]]:
    """First witness by exhaustive enumeration, or None; guarded to small instances."""
    if len(inst.events) > limit:
        raise ValueError(f"instance too large for brute force ({len(inst.events)} events)")
    return next(iter_vsc_witnesses(inst), None)
