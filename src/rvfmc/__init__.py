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
    empty_trace,
    extend,
    parse_program,
    replay,
)
from .semantics import (
    ClockOrder,
    causal_order,
    maz_key,
    reads_from,
    rf_key,
    rvf_key,
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
    "Program",
    "SolverOptions",
    "Trace",
    "VscInstance",
    "VscResult",
    "brute_force_vsc",
    "causal_order",
    "census",
    "closure",
    "count_classes",
    "empty_trace",
    "enumerate_maximal_traces",
    "explore",
    "extend",
    "maz_key",
    "parse_instance",
    "parse_program",
    "reads_from",
    "replay",
    "rf_key",
    "rvf_key",
    "verify_sc",
]
