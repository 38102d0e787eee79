"""Stateless model checking of bounded shared-memory programs under
sequential consistency, exploring one representative per reads-value-from
behavior class."""

from .explore import ExplorationReport, ExploreOptions, explore
from .oracle import brute_force_vsc, census, count_classes, enumerate_maximal_traces
from .program import (
    Event,
    Execution,
    ParseError,
    Program,
    Trace,
    assertion_status,
    empty_trace,
    extend,
    parse_program,
    replay,
)
from .semantics import (
    ClockOrder,
    PartialOrder,
    causal_order,
    is_lower_set,
    maz_key,
    project,
    reads_from,
    refines,
    rf_key,
    rvf_key,
    visible_writes,
)
from .vsc import (
    SolverOptions,
    VscInstance,
    VscResult,
    closure,
    parse_instance,
    verify_sc,
)

__all__ = [
    "ClockOrder",
    "Event",
    "Execution",
    "ExplorationReport",
    "ExploreOptions",
    "ParseError",
    "PartialOrder",
    "Program",
    "SolverOptions",
    "Trace",
    "VscInstance",
    "VscResult",
    "assertion_status",
    "brute_force_vsc",
    "causal_order",
    "census",
    "closure",
    "count_classes",
    "empty_trace",
    "enumerate_maximal_traces",
    "explore",
    "extend",
    "is_lower_set",
    "maz_key",
    "parse_instance",
    "parse_program",
    "project",
    "reads_from",
    "refines",
    "replay",
    "rf_key",
    "rvf_key",
    "verify_sc",
    "visible_writes",
]
