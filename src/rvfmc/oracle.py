"""Ground truth: a census of the maximal traces by reads-value-from,
reads-from and commutation (Mazurkiewicz) class.

``count_classes`` walks the schedules with sleep sets (Godefroid 1996) over
an explicit stack, keeping no trace.  Two events of different threads
depend on each other when they touch the same global and one writes it; a
mutex release writes, so it wakes a sleeping acquire.  The census is
independent of the explorer by a different reduction, checked against an
exhaustive reference in ``tests/``.
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
    and only leaves are keyed.  The counts below a node depend on its state
    alone: a sleeping event is stepped and undone to look them up.  A node
    stores them only if its class has two maximal events (that no later
    event depends on): a class with one is reached from its parent's alone.
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
    table: dict[tuple, tuple] = {}
    keys = KeyBuilder(trace)

    # the node's enabled events, sleep set (thread bits and events) and
    # maximal events; on the stack, its parent's and the counts on entry
    it, mask, sleep, top = iter(trace.enabled), 0, [], ()
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
            enabled = trace.enabled
            stack.append((it, mask, sleep, top, n, d))
            it = iter(enabled)
            if enabled:
                # independent of e: another var, or both read
                v, r = e.var, None if e.kind == "W" else "R"
                parent, top = top, [e]
                for m in parent:
                    if m.thread != t and (m.var != v or m.kind == r):
                        top.append(m)
                parent, sleep, mask = sleep, [], 0
                for s in parent:
                    if s.var != v or s.kind == r:
                        sleep.append(s)
                        mask |= 1 << s.thread
            else:
                violations.update(trace.violations)
                if rvf_set is not None:
                    rvf_set.add(keys.rvf_key())
                if rf_set is not None:
                    rf_set.add(keys.rf_key())
                leaves += 1
                n += 1
                d += trace.deadlocked
                top = ()
            break
        else:
            if not stack:
                break
            it, mask, sleep, parent, n0, d0 = stack.pop()
            if len(top) > 1:
                table[_state(trace)] = (n - n0, d - d0)
            top = parent
            e = trace.undo()
            keys.pop(e)
            sleep.append(e)
            mask |= 1 << e.thread

    classes = {eq: len(sets[eq]) if eq in sets else leaves for eq in eqs}
    return ClassCount(n, classes, sorted(violations), d)
