"""Ground truth: a census of the maximal traces by reads-value-from,
reads-from and commutation (Mazurkiewicz) class.

``count_classes`` walks the schedules with sleep sets (Godefroid 1996) over
an explicit stack, keeping no trace, and looks a subtree up instead of
walking it again when its node's content was seen before (state caching
on sleep sets: Godefroid, Holzmann & Pirottin 1995).  Two events of
different threads depend on each other when they touch the same global and
one writes it; a mutex release writes, so it wakes a sleeping acquire.
The census is independent of the explorer by a different reduction,
checked against an exhaustive reference in ``tests/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .program import Program, Trace, empty_trace, extend
from .semantics import KeyBuilder


class BudgetExceeded(RuntimeError):
    """The step budget ran out before the census finished."""


_EQUIVALENCES = ("rvf", "rf", "maz")


@dataclass
class ClassCount:
    maximal_traces: int
    classes: dict[str, int]
    assertion_violations: list[str]
    deadlocks: int


def _state(trace: Trace) -> tuple:
    """Per thread the key of its interned state (pc, event count and
    locals), stored when the state was made; the memory; the holders."""
    return (*[st.key for st in trace._threads], *trace._memory.values(), *trace._holders.values())


def count_classes(
    program: Program, equivalences: Iterable[str] = _EQUIVALENCES, budget: int = 10_000_000
) -> ClassCount:
    """Count the schedules, classes, violations and deadlocks.

    ``equivalences`` names any of "rvf", "rf" and "maz", or is one such
    name; another name raises ValueError.  Each step spends one unit of
    ``budget``.  A node steps its enabled events in thread order; a child's
    sleep set is the node's plus its earlier siblings, less the events that
    depend on the child's.  So each maximal Mazurkiewicz class is one leaf,
    and only walked leaves are keyed.  The counts below a node depend on its
    state alone, and each walked node that is not a leaf stores them by
    state: a sleeping event is stepped and undone to look them up.

    A node with two enabled events or more is also stored, with its
    schedules, deadlocks and leaves, under its signature: its sleep mask,
    each thread's history id and each global's last write.  A thread's id
    interns ``(previous id, value)`` for a write and ``(previous id, value,
    source)`` for a read, so it names the whole history, and as a thread's
    events come in program order it does not depend on the interleaving.
    A node whose signature is stored adds the stored counts and is undone
    without a walk.  That adds what the walk would, because:

    - by thread-local determinism, equal histories give equal thread
      states, mutex holders and failed asserts, and with the last writes
      equal memory;
    - the state and the sleep mask fix the walk below the node;
    - the histories fix program order and reads-from, so every read's
      causal mask, and with the last writes every ``keys.push`` below: the
      keys and violations below were collected at the first visit.

    The state table stays complete: whatever a skipped subtree would store
    was stored below the first visit.
    """
    eqs = (equivalences,) if isinstance(equivalences, str) else tuple(equivalences)
    for eq in eqs:
        if eq not in _EQUIVALENCES:
            raise ValueError(f"unknown equivalence {eq!r}; expected one of {', '.join(_EQUIVALENCES)}")

    trace = empty_trace(program)
    if trace.maximal:  # no thread has an event
        return ClassCount(1, dict.fromkeys(eqs, 1), sorted(trace.violations), 0)
    sets: dict[str, set] = {eq: set() for eq in eqs if eq != "maz"}
    rvf_set, rf_set = sets.get("rvf"), sets.get("rf")
    violations: set[str] = set()
    table: dict[tuple, tuple] = {}  # state -> schedules, deadlocks
    memo: dict[tuple, tuple] = {}  # signature -> schedules, deadlocks, leaves
    keys = KeyBuilder(trace)
    ids: dict[tuple, int] = {}  # interned histories; 0 is the empty one
    hist = [0] * (len(program.threads) + 1)  # by thread id

    # the node's enabled events, sleep set (thread bits and events) and
    # signature, () if it has one enabled event and None if it is a leaf or
    # was looked up; on the stack, its parent's, the stepping thread's
    # history id before the step, and the counts on entry
    it, mask, sleep, sig = iter(trace.enabled), 0, [], None
    stack: list[tuple] = []
    leaves = n = d = 0
    while True:
        for e in it:
            budget -= 1
            if budget < 0:
                raise BudgetExceeded("schedule budget exhausted")
            extend(trace, e)
            t = e.thread
            if mask >> t & 1:
                ns, nd = table[_state(trace)] if trace.enabled else (1, trace.deadlocked)
                n += ns
                d += nd
                trace.undo()
                continue
            keys.push(e)
            h = hist[t]
            hist[t] = ids.setdefault(keys.entry(h, e), len(ids) + 1)
            enabled = trace.enabled
            stack.append((it, mask, sleep, sig, h, n, d, leaves))
            it, sig = iter(enabled), ()
            if enabled:
                # independent of e: another var, or both read
                v, r = e.var, None if e.kind == "W" else "R"
                parent, sleep, mask = sleep, [], 0
                for s in parent:
                    if s.var != v or s.kind == r:
                        sleep.append(s)
                        mask |= 1 << s.thread
                if len(enabled) > 1:
                    sig = (mask, *hist, *keys.writers())
                    got = memo.get(sig)
                    if got is not None:  # walked before: add, do not walk
                        n, d, leaves = n + got[0], d + got[1], leaves + got[2]
                        it, sig = iter(()), None
            else:
                violations.update(trace.violations)
                if rvf_set is not None:
                    rvf_set.add(keys.rvf_key())
                if rf_set is not None:
                    rf_set.add(keys.rf_key())
                leaves += 1
                n += 1
                d += trace.deadlocked
                sig = None
            break
        else:
            if not stack:
                break
            below = sig
            it, mask, sleep, sig, h, n0, d0, l0 = stack.pop()
            if below is not None:
                table[_state(trace)] = counts = (n - n0, d - d0)
                if below:
                    memo[below] = (*counts, leaves - l0)
            e = trace.undo()
            keys.pop(e)
            hist[e.thread] = h
            sleep.append(e)
            mask |= 1 << e.thread

    classes = {eq: len(sets[eq]) if eq in sets else leaves for eq in eqs}
    return ClassCount(n, classes, sorted(violations), d)
