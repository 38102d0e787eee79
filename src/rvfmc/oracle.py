"""Ground truth by exhaustive schedule enumeration: every maximal trace, and
the census of their equivalence classes.

``iter_maximal_traces`` yields every maximal trace, and ``count_classes``
counts their reads-value-from, reads-from and commutation (Mazurkiewicz)
classes without keeping the traces.  Everything here is deliberately
heuristic-free so it can stand as an independent oracle for the explorer:
the independence comes from enumerating every schedule, not from a second
interpreter or a second key.  The rvf key is the explorer's own
``semantics.rvf_key``, which the tests check against a key built on
explicit pairs.  The depth-first search drives one
``program.Trace`` through ``extend`` and ``Trace.undo`` over an explicit
stack, so full enumeration of six-figure schedule spaces stays within
desk-scale budgets and trace length is not bounded by the recursion limit.
The materializing census and the brute-force realizability oracle that the
tests compare against live in ``tests/reference_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator, Optional

from .program import Event, EventId, Execution, Program, Trace, empty_trace, extend
from .semantics import rvf_key


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


def iter_maximal_traces(program: Program, budget: int = 10_000_000) -> Iterator[Execution]:
    """Yield every maximal trace reachable by any scheduler, in DFS order."""
    for trace in _maximal(empty_trace(program), budget):
        yield trace.freeze()


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

    ``equivalences`` names any of "rvf", "rf" and "maz"; another name raises
    ValueError.  Reads-from sources and per-variable write orders are
    maintained incrementally along the DFS, only when "rf" or "maz" is
    asked for, and each maximal trace gets its ``rvf_key``, the compact
    ``("rvf", flat, order)``, so the per-trace cost stays linear in trace
    length outside the key's read masks.
    """
    eqs = tuple(equivalences)
    for eq in eqs:
        if eq not in _EQUIVALENCES:
            raise ValueError(f"unknown equivalence {eq!r}; expected one of {', '.join(_EQUIVALENCES)}")
    want_rf = "rf" in eqs or "maz" in eqs
    globs = program.globals

    sets: dict[str, set] = {eq: set() for eq in eqs}
    rvf_set, rf_set, maz_set = sets.get("rvf"), sets.get("rf"), sets.get("maz")
    violations: set[str] = set()
    total = deadlocks = 0

    # The rf and maz keys are flat tuples of ints: each event id gets a dense
    # code when the search first executes it, so the millions of keys a large
    # census holds carry no nested tuples.
    codes: dict[EventId, int] = {}
    init_of = {v: codes.setdefault((0, i + 1), i) for i, v in enumerate(globs)}

    # incremental per-prefix structures; the event-id set of a prefix is
    # exactly its per-thread counts vector.  Per thread, the code of each
    # read followed by the code of its source, in program order, so these
    # lists concatenated by thread are a canonical form of reads-from.
    sources: list[list[int]] = [[] for _ in program.threads]
    write_orders: list[list[int]] = [[] for _ in globs]  # codes; last is active
    writes_of = dict(zip(globs, write_orders))

    def push(e: Event) -> None:
        c = codes.get(e.eid)
        if c is None:
            c = codes[e.eid] = len(codes)
        writes = writes_of[e.var]
        if e.kind == "R":
            reads = sources[e.thread - 1]
            reads.append(c)
            reads.append(writes[-1] if writes else init_of[e.var])
        else:
            writes.append(c)

    def pop(e: Event) -> None:
        if e.kind == "W":
            writes_of[e.var].pop()
        else:
            del sources[e.thread - 1][-2:]

    hooks = (push, pop) if want_rf else ()
    for trace in _maximal(empty_trace(program), budget, *hooks):
        total += 1
        deadlocks += trace.deadlocked
        violations.update(trace.violations)
        if want_rf:
            ev_key = trace.counts
            # ev_key has one entry per thread and the write lists one length
            # per variable, so each key splits back into its parts
            rfk = tuple(chain.from_iterable(sources))
            if rf_set is not None:
                rf_set.add((*ev_key, *rfk))
            if maz_set is not None:
                maz_set.add(
                    (*ev_key, len(rfk), *rfk, *map(len, write_orders), *chain.from_iterable(write_orders))
                )
        if rvf_set is not None:
            rvf_set.add(rvf_key(trace))

    return ClassCount(total, {eq: len(sets[eq]) for eq in eqs}, sorted(violations), deadlocks)
