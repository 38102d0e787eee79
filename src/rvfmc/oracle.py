"""Ground truth by exhaustive schedule enumeration: every maximal trace, and
the census of their equivalence classes.

``_maximal`` drives one trace through every maximal trace, and
``count_classes`` counts their reads-value-from, reads-from and
commutation (Mazurkiewicz) classes without keeping the traces.  Everything
here is deliberately heuristic-free so it can stand as an independent
oracle for the explorer: the independence comes from enumerating every
schedule, not from a second interpreter or a second key.  The keys come
from ``semantics.KeyBuilder`` (its rvf key is the explorer's), which the
tests check against keys built on explicit pairs.  The depth-first search
drives one ``program.Trace``, and the census one builder beside it, over
an explicit stack, so six-figure schedule spaces stay within desk-scale
budgets and trace length is not bounded by the recursion limit.  The
materializing census and brute-force realizability oracle that the tests
compare against, and the enumeration of the maximal traces as frozen
``Execution``s, live in ``tests/reference_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from .program import Event, Program, Trace, empty_trace, extend
from .semantics import KeyBuilder


class BudgetExceeded(RuntimeError):
    """The schedule-step budget ran out before enumeration finished."""


def _maximal(
    trace: Trace,
    budget: int,
    on_extend: Optional[Callable[[Event], None]] = None,
    on_undo: Optional[Callable[[Event], None]] = None,
) -> Iterator[Trace]:
    """Drive ``trace`` depth-first through every schedule, in enabled order,
    yielding it each time it is maximal; it ends as it started.

    ``on_extend(event)`` runs after each step and ``on_undo(event)`` after
    its undo.  Every step spends one unit of ``budget``.
    """
    frames = [iter(trace.enabled)]
    if trace.maximal:
        yield trace
    while frames:
        for e in frames[-1]:
            budget -= 1
            if budget < 0:
                raise BudgetExceeded("schedule budget exhausted")
            extend(trace, e)
            if on_extend is not None:
                on_extend(e)
            enabled = trace.enabled
            if enabled:
                frames.append(iter(enabled))
                break
            yield trace
            trace.undo()
            if on_undo is not None:
                on_undo(e)
        else:
            frames.pop()
            if frames:
                e = trace.undo()
                if on_undo is not None:
                    on_undo(e)


# ---------------------------------------------------------------------------
# Equivalence-class census
# ---------------------------------------------------------------------------

_EQUIVALENCES = ("rvf", "rf", "maz")


@dataclass
class ClassCount:
    maximal_traces: int
    classes: dict[str, int]
    assertion_violations: list[str]
    deadlocks: int


def count_classes(
    program: Program, equivalences: Iterable[str] = _EQUIVALENCES, budget: int = 10_000_000
) -> ClassCount:
    """Streaming census over all maximal traces, without materializing them.

    ``equivalences`` names any of "rvf", "rf" and "maz", or is one such
    name; another name raises ValueError.  One ``semantics.KeyBuilder`` is
    pushed and popped with every step of the search, whichever keys are
    asked for, and keys each maximal trace by concatenating its lists.
    """
    eqs = (equivalences,) if isinstance(equivalences, str) else tuple(equivalences)
    for eq in eqs:
        if eq not in _EQUIVALENCES:
            raise ValueError(f"unknown equivalence {eq!r}; expected one of {', '.join(_EQUIVALENCES)}")

    sets: dict[str, set] = {eq: set() for eq in eqs}
    rvf_set, rf_set, maz_set = sets.get("rvf"), sets.get("rf"), sets.get("maz")
    violations: set[str] = set()
    total = deadlocks = 0

    trace = empty_trace(program)
    keys = KeyBuilder(trace)
    for trace in _maximal(trace, budget, keys.push, keys.pop):
        total += 1
        deadlocks += trace.deadlocked
        violations.update(trace.violations)
        if rvf_set is not None:
            rvf_set.add(keys.rvf_key())
        if rf_set is not None:
            rf_set.add(keys.rf_key())
        if maz_set is not None:
            maz_set.add(keys.maz_key())

    return ClassCount(total, {eq: len(sets[eq]) for eq in eqs}, sorted(violations), deadlocks)
