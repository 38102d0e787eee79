"""Test-only views of a ``vsc.VscInstance``: the bound on its witness
states, its text form, the inverse of ``vsc.parse_instance``, and the same
instance with its events listed in another order."""

from __future__ import annotations

from typing import Iterable

from rvfmc.program import Event
from rvfmc.vsc import VscInstance


def state_bound(inst: VscInstance) -> int:
    """prod_t(n_t + 1) * (k + 1)^d: the limit on distinct witness states."""
    bound = 1
    for chain in inst.by_thread.values():
        bound *= len(chain) + 1
    return bound * (len(inst.threads) + 1) ** len(inst.variables)


def in_order(inst: VscInstance, events: Iterable[Event]) -> VscInstance:
    """``inst`` with its events listed as in ``events``, a permutation of
    them: the order that guides ``verify_sc`` with ``guided`` on."""
    events = tuple(events)
    assert sorted(e.eid for e in events) == sorted(e.eid for e in inst.events), "not a permutation"
    return VscInstance(events, inst.good_writes, inst.universe)


def format_instance(inst: VscInstance) -> str:
    lines = []
    for e in sorted(inst.events, key=lambda e: e.eid):
        v = f" {e.value}" if e.kind == "W" else ""
        lines.append(f"E {e.thread} {e.index} {e.kind} {e.var}{v}")
    for reid in sorted(inst.good_writes):
        ws = " ".join(f"{t}.{i}" for t, i in sorted(inst.good_writes[reid]))
        lines.append(f"G {reid[0]} {reid[1]} : {ws}")
    return "\n".join(lines) + "\n"
