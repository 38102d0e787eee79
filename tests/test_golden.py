"""Golden explorer output: one sha256 over everything ``explore`` reports.

The inputs are the corpus, the programs under ``programs/`` and small
instances of the benchmark's program shapes, each explored under all 16
``ExploreOptions``.  Per run the digest covers every leaf (its events in
trace order, and its values, violations and deadlock flag replayed from
them), the partition that
the report's rvf keys induce (per leaf, the index of the first leaf with an
equal key, so the digest does not depend on the key's encoding), and the
solver calls, node refutations, witness states and deadlocks.
The JSON is canonical: keys sorted, sets written as sorted lists, so the
digest does not depend on ``PYTHONHASHSEED``.  A change that is meant to
leave the explorer's decisions alone must leave the digest alone.

The solver digest covers ``verify_sc`` alone: per seeded ``random_instance``
draw, its events listed in the order of its ``random_linearization``,
which guides the search, under all 8 ``SolverOptions``, the verdict, the
witness's event ids and the states processed.  It pins the exact state
counts of calls that backtrack, which the explorer's digest reaches only
through the bench shapes.  Run this file as a script to print both
digests of the current tree.
"""

import hashlib
import itertools
import json
import random
from pathlib import Path

from rvfmc import ExploreOptions, SolverOptions, explore, parse_program, replay, verify_sc
from corpus import PROGRAMS
from reference_vsc import in_order
from test_fuzz import random_instance, random_linearization

ALL_EXPLORE_OPTIONS = [ExploreOptions(*bits) for bits in itertools.product([True, False], repeat=4)]

PROGRAM_DIR = Path(__file__).resolve().parent.parent / "programs"

GOLDEN_SHA256 = "67b504b12bee8a1c7c6b98b92dccd5f3581f74bec3aa9afa22004b6e03a5f7f1"

ALL_SOLVER_OPTIONS = [SolverOptions(*bits) for bits in itertools.product([False, True], repeat=3)]

SOLVER_SHA256 = "2571260c71d2fe909f1d9076b16a1b799a16c7283f705aaecbc6a72d64d8a519"


def bench_shapes() -> dict[str, str]:
    """Small instances of the benchmark's explore workloads, with fixed names."""
    sb_ring = "\n".join(
        f"thread t{i} {{ write x{i} 1; a = read x{(i - 2) % 4 + 1}; b = read x{i % 4 + 1}; }}"
        for i in range(1, 5)
    )
    lock_counter = "\n".join(
        f"thread t{i} {{ lock m; a = read x; write x a + 1; unlock m; }}" for i in range(1, 5)
    )
    return {
        "sb-ring-4": sb_ring,
        "lock-counter-4": lock_counter,
        "long-n-12": "thread w { repeat 12 { write x 1; } }\nthread r { repeat 12 { a = read x; } }",
        "long-writer-100": "thread w { repeat 100 { write x 1; } }\nthread r { a = read x; }",
    }


def golden_inputs() -> dict[str, str]:
    programs = {f"corpus/{name}": source for name, source in PROGRAMS.items()}
    for path in sorted(PROGRAM_DIR.glob("*.prog")):
        programs[f"programs/{path.name}"] = path.read_text()
    programs.update((f"bench/{name}", source) for name, source in bench_shapes().items())
    return programs


def key_partition(keys: list) -> list[int]:
    """Per key, the index of the first key equal to it."""
    first: dict = {}
    return [first.setdefault(k, i) for i, k in enumerate(keys)]


def report_record(program, rep) -> dict:
    """Everything ``explore`` decided, as plain JSON values."""
    leaves = [
        {
            "events": [[e.thread, e.index, e.kind, e.var, e.value] for e in ex.events],
            "values": [[t, i, v] for (t, i), v in sorted(ex.values.items())],
            "violations": sorted(ex.violations),
            "deadlocked": ex.deadlocked,
        }
        for ex in (replay(program, schedule) for schedule in rep.schedules)
    ]
    return {
        "leaves": leaves,
        "rvf_key_partition": key_partition(rep.rvf_keys),
        "vsc_calls": rep.vsc_calls,
        "node_refutations": rep.node_refutations,
        "witness_states": rep.witness_states,
        "deadlocks": rep.deadlocks,
    }


def golden_digest() -> str:
    runs = []
    for name, source in golden_inputs().items():
        program = parse_program(source)
        for options in ALL_EXPLORE_OPTIONS:
            flags = [options.backtrack_signals, options.closure, options.greedy, options.aux_trace]
            runs.append({"program": name, "options": flags, **report_record(program, explore(program, options))})
    text = json.dumps(runs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def solver_digest(draws: int = 2000, seed: int = 20261019) -> str:
    runs = []
    rng = random.Random(seed)
    for _ in range(draws):
        inst = random_instance(rng)
        guided = in_order(inst, random_linearization(inst, rng))
        for options in ALL_SOLVER_OPTIONS:
            res = verify_sc(guided, options)
            witness = None if res.witness is None else [list(e.eid) for e in res.witness]
            runs.append([res.realizable, witness, res.states_processed])
    text = json.dumps(runs, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_explorer_output_matches_golden_digest():
    assert golden_digest() == GOLDEN_SHA256


def test_solver_output_matches_solver_digest():
    assert solver_digest() == SOLVER_SHA256


if __name__ == "__main__":
    print(golden_digest())
    print(solver_digest())
