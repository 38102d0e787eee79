"""Stateless model checking of bounded shared-memory programs under
sequential consistency, exploring one representative per reads-value-from
behavior class."""

from .explore import ExplorationReport, ExploreOptions, explore
from .oracle import count_classes
from .program import (
    Event,
    ParseError,
    Program,
    Trace,
    empty_trace,
    extend,
    parse_program,
    replay,
)
from .semantics import rvf_key
from .vsc import (
    Closure,
    SolverOptions,
    VscInstance,
    VscResult,
    closure,
    parse_instance,
    verify_sc,
)

__all__ = [
    "Closure",
    "Event",
    "ExplorationReport",
    "ExploreOptions",
    "ParseError",
    "Program",
    "SolverOptions",
    "Trace",
    "VscInstance",
    "VscResult",
    "closure",
    "count_classes",
    "empty_trace",
    "explore",
    "extend",
    "parse_instance",
    "parse_program",
    "replay",
    "rvf_key",
    "verify_sc",
]
