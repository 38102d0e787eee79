"""Command-line front end: explore a program, census its trace classes, or
solve a realizability instance file.

Every mode prints exactly one JSON object to stdout; output is reproducible
across runs except for the wall_time_ms field.  Exit codes: 2 when an input
file cannot be read or is not UTF-8 text, when the --emit-traces file cannot
be written, on parse errors, on interpreter errors such as releasing a mutex
the thread does not hold, and when the census budget runs out, each with a
one-line reason on stderr; 1 when --fail-on-violation is set and an
assertion violation was found; 0 otherwise.

In vsc mode the order of the instance file's E records is the auxiliary
trace that guides the witness search; --no-aux-trace searches in event-id
order instead.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from .explore import ExploreOptions, explore
from .oracle import BudgetExceeded, count_classes
from .program import InterpreterError, ParseError, parse_program
from .vsc import SolverOptions, VscError, format_witness, parse_instance, verify_sc


def _base_record(mode: str, path: str) -> dict:
    return {
        "mode": mode,
        "program": path,
        "maximal_traces": None,
        "rvf_classes": None,
        "rf_classes": None,
        "maz_classes": None,
        "leaves": None,
        "vsc_calls": None,
        "node_refutations": None,
        "witness_states": None,
        "assertion_violations": [],
        "deadlocks": None,
        "wall_time_ms": None,
        "options": {},
    }


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _cmd_explore(args: argparse.Namespace) -> int:
    program = parse_program(_read(args.program))
    options = ExploreOptions(
        backtrack_signals=not args.no_backtrack_signals,
        closure=not args.no_closure,
        greedy=not args.no_greedy,
        aux_trace=not args.no_aux_trace,
    )
    report = explore(program, options)
    record = _base_record("explore", args.program)
    record.update(
        maximal_traces=report.leaf_count,
        rvf_classes=report.distinct_rvf_classes(),
        leaves=report.leaf_count,
        vsc_calls=report.vsc_calls,
        node_refutations=report.node_refutations,
        witness_states=report.witness_states,
        assertion_violations=report.assertion_violations,
        deadlocks=report.deadlocks,
        wall_time_ms=round(report.wall_time_ms, 3),
        options={
            "backtrack_signals": options.backtrack_signals,
            "closure": options.closure,
            "greedy": options.greedy,
            "aux_trace": options.aux_trace,
        },
    )
    if args.emit_traces:
        with open(args.emit_traces, "w", encoding="utf-8") as fh:
            for schedule in report.schedules:
                fh.write(format_witness(schedule) + "\n")
    print(json.dumps(record))
    if args.fail_on_violation and record["assertion_violations"]:
        return 1
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    program = parse_program(_read(args.program))
    start = time.perf_counter()
    counts = count_classes(program, ("rvf", "rf", "maz"), budget=args.budget)
    record = _base_record("census", args.program)
    record.update(
        maximal_traces=counts.maximal_traces,
        rvf_classes=counts.classes["rvf"],
        rf_classes=counts.classes["rf"],
        maz_classes=counts.classes["maz"],
        assertion_violations=counts.assertion_violations,
        deadlocks=counts.deadlocks,
        wall_time_ms=round((time.perf_counter() - start) * 1000.0, 3),
        options={"budget": args.budget},
    )
    print(json.dumps(record))
    if args.fail_on_violation and record["assertion_violations"]:
        return 1
    return 0


def _cmd_vsc(args: argparse.Namespace) -> int:
    inst = parse_instance(_read(args.instance))
    options = SolverOptions(
        greedy=not args.no_greedy,
        closure=not args.no_closure,
        guided=not args.no_aux_trace,
    )
    start = time.perf_counter()
    result = verify_sc(inst, options)
    record = _base_record("vsc", args.instance)
    record.update(
        witness_states=result.states_processed,
        wall_time_ms=round((time.perf_counter() - start) * 1000.0, 3),
        options={"greedy": options.greedy, "closure": options.closure, "aux_trace": options.guided},
    )
    record["realizable"] = result.realizable
    record["witness"] = format_witness(result.witness) if result.witness is not None else None
    print(json.dumps(record))
    return 0


def _budget(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {n}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rvf-mc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_explore = sub.add_parser("explore", help="explore one maximal trace per behavior class")
    p_explore.add_argument("program", help="program file in the thread DSL")
    p_explore.add_argument("--no-backtrack-signals", action="store_true")
    p_explore.add_argument("--no-closure", action="store_true")
    p_explore.add_argument("--no-greedy", action="store_true")
    p_explore.add_argument("--no-aux-trace", action="store_true")
    p_explore.add_argument("--fail-on-violation", action="store_true")
    p_explore.add_argument("--emit-traces", metavar="PATH", default=None)
    p_explore.set_defaults(fn=_cmd_explore)

    p_census = sub.add_parser("census", help="enumerate all schedules and count equivalence classes")
    p_census.add_argument("program")
    p_census.add_argument("--budget", type=_budget, default=10_000_000, metavar="N")
    p_census.add_argument("--fail-on-violation", action="store_true")
    p_census.set_defaults(fn=_cmd_census)

    p_vsc = sub.add_parser("vsc", help="solve one realizability instance file")
    p_vsc.add_argument("instance")
    p_vsc.add_argument("--no-closure", action="store_true")
    p_vsc.add_argument("--no-greedy", action="store_true")
    p_vsc.add_argument("--no-aux-trace", action="store_true")
    p_vsc.set_defaults(fn=_cmd_vsc)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, UnicodeDecodeError, ParseError, VscError, InterpreterError, BudgetExceeded) as exc:
        print(f"rvf-mc: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
