"""Test-only oracles: trace keys from their definitions, a materializing
census, and brute-force realizability.

``reference_rvf_key`` builds the causal order as explicit pairs, the closure
of program order and reads-from edges in ``reference_closure._Order``, and
restricts it to reads; the tests check ``rvfmc.rvf_key`` against it.
``census`` keys materialized traces, so it checks the streaming
``rvfmc.count_classes``.  ``brute_force_vsc`` enumerates every
linearization, so it checks ``rvfmc.verify_sc``.  All of it is slow but
direct, which is what a reference should be.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from rvfmc.oracle import iter_maximal_traces
from rvfmc.program import Event, EventId, Execution, Program
from rvfmc.vsc import VscInstance
from reference_closure import _Order


def enumerate_maximal_traces(program: Program, budget: int = 10_000_000) -> list[Execution]:
    return list(iter_maximal_traces(program, budget))


# ---------------------------------------------------------------------------
# Reads-from, the causal order and the equivalence keys
# ---------------------------------------------------------------------------


def reads_from(run) -> dict[Event, Event]:
    """Map each read to the latest earlier conflicting write (initial write if none)."""
    active: dict[str, Event] = {}
    rf: dict[Event, Event] = {}
    for e in run.events:
        if e.kind == "W":
            active[e.var] = e
        else:
            rf[e] = active.get(e.var) or run.program.init_event(e.var)
    return rf


def causal_order(run) -> _Order:
    """The transitive closure of program order and reads-from edges.  Initial
    writes precede everything implicitly and are not in the order."""
    order = _Order(e.eid for e in run.events)
    for e in run.events:
        if e.index > 1:
            order.add((e.thread, e.index - 1), e.eid)
    for r, w in reads_from(run).items():
        if w.thread != 0:
            order.add(w.eid, r.eid)
    return order


def _events_key(run) -> tuple[EventId, ...]:
    return tuple(sorted(e.eid for e in run.events))


def reference_rvf_key(run):
    """The key ``rvfmc.rvf_key`` computes, from the definition."""
    ev = _events_key(run)
    reads = {e.eid for e in run.events if e.kind == "R"}
    ro = sorted((a, b) for a, b in causal_order(run).pairs if a in reads and b in reads)
    return ("rvf", ev, tuple(run.values[eid] for eid in ev), tuple(ro))


def rf_key(run):
    """Canonical key of the reads-from class of a trace."""
    rf = reads_from(run)
    pairs = tuple(sorted((r.eid, w.eid) for r, w in rf.items()))
    return ("rf", _events_key(run), pairs)


def maz_key(run):
    """Canonical key of the commutation class: orientation of every conflicting pair."""
    events = run.events
    oriented = []
    for i, a in enumerate(events):
        for b in events[i + 1 :]:
            if a.var == b.var and "W" in (a.kind, b.kind):
                oriented.append((a.eid, b.eid))
    return ("maz", _events_key(run), tuple(sorted(oriented)))


def format_key(key) -> str:
    """Stable one-line text form of any equivalence key, for golden files."""

    def fmt(x) -> str:
        if isinstance(x, tuple):
            if len(x) == 2 and all(isinstance(v, int) for v in x):
                return f"{x[0]}.{x[1]}"
            return "(" + ",".join(fmt(v) for v in x) + ")"
        return str(x)

    tag, *parts = key
    return tag + "|" + "|".join(fmt(p) for p in parts)


# ---------------------------------------------------------------------------
# Materializing census
# ---------------------------------------------------------------------------

_KEY_FN = {"rvf": reference_rvf_key, "rf": rf_key, "maz": maz_key}


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
