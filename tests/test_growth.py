"""Growth ratchet: how the cost of an explored leaf grows with the trace.

Each shape is explored at n and at 2n.  Per leaf, every unit below is
taken at 2n and divided by its value at n, and that ratio must stay within
its bound.  On these shapes the nodes per leaf grow as n, so work per node
that does not grow with the path makes a unit about double per doubling
of n, and a per-node pass over the trace makes it about quadruple.

The units:

* ``bytecodes``: Python bytecodes that ``explore`` executes, counted with
  ``sys.settrace`` and ``f_trace_opcodes`` after one warm-up run, so that
  the event cache is as warm at both sizes;
* ``instance_events``: events copied into a ``VscInstance``;
* ``new_read_entries``: the reads that ``vsc._extend`` finds its start
  lacks.  It walks to them from the good-writes map's end, so when they
  are the map's last keys, as the explorer's are, they are all it walks;
* ``steps``: calls of the closure's ``vsc._step``.

The bounds are ratios, not counts, because Python versions compile to
different bytecodes.  Each is the larger of the ratios that Python 3.10
and 3.11 measured when it was set, rounded up to 0.01.  It is a ratchet:
a change that lowers a ratio lowers its bound with it, and no bound is
ever raised.

The interpreter interns thread states by pc, events executed and locals
in a table per run, so one explore of each shape makes a state per event
a thread has executed and value its last read saw: about 3n on long-n and
2n on one-writer-n.  Those counts are pinned exactly, with one census pin,
so that a table that keeps a state per path (n squared on one-writer-n)
fails them.
"""

import sys
from functools import lru_cache

import pytest

from rvfmc import count_classes, explore, parse_program
from corpus import many_threads_family
from reference_oracle import interned_states, recorded_runs

EXPLORE, VSC = sys.modules["rvfmc.explore"], sys.modules["rvfmc.vsc"]
N = 20

SHAPES = {
    "long-n": lambda n: f"thread w {{ repeat {n} {{ write x 1; }} }}\nthread r {{ repeat {n} {{ a = read x; }} }}",
    "one-writer-n": lambda n: f"thread t1 {{ write x 1; }}\nthread t2 {{ repeat {n} {{ a = read x; }} }}",
}

BOUNDS = {
    "long-n": {"bytecodes": 1.98, "instance_events": 2.04, "new_read_entries": 2.0, "steps": 2.05},
    "one-writer-n": {"bytecodes": 1.94, "instance_events": 1.92, "new_read_entries": 2.0, "steps": 2.05},
}


def count_bytecodes(program) -> int:
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if event == "call":
            frame.f_trace_opcodes = True
        elif event == "opcode":
            count += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        explore(program)
    finally:
        sys.settrace(previous)
    return count


def count_units(program) -> dict:
    """Every unit but ``bytecodes`` over one ``explore(program)``."""
    counts = {"instance_events": 0, "new_read_entries": 0, "steps": 0}
    instance, extend_closure, step = VSC.VscInstance, VSC._extend, VSC._step

    def building(events, *args, **kwargs):
        counts["instance_events"] += len(events)
        return instance(events, *args, **kwargs)

    def extending(base, chains, good_writes):
        counts["new_read_entries"] += len(good_writes) - (0 if base is None else len(base.entries))
        return extend_closure(base, chains, good_writes)

    def stepping(*args):
        counts["steps"] += 1
        return step(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(EXPLORE, "VscInstance", building)
        patch.setattr(VSC, "_extend", extending)
        patch.setattr(VSC, "_step", stepping)
        explore(program)
    return counts


@lru_cache(maxsize=None)
def per_leaf(shape: str, n: int) -> dict:
    program = parse_program(SHAPES[shape](n))
    leaves = explore(program).leaf_count  # also the warm-up
    units = {"bytecodes": count_bytecodes(program), **count_units(program)}
    return {unit: value / leaves for unit, value in units.items()}


def growth(shape: str) -> dict:
    """Per unit, its value per leaf at 2N over its value per leaf at N."""
    small, large = per_leaf(shape, N), per_leaf(shape, 2 * N)
    return {unit: large[unit] / small[unit] for unit in small}


@pytest.mark.parametrize("shape, unit", [(shape, unit) for shape in SHAPES for unit in BOUNDS[shape]])
def test_per_leaf_growth_within_bound(shape, unit):
    ratio = growth(shape)[unit]
    assert ratio <= BOUNDS[shape][unit], f"{shape} {unit}: {ratio:.3f} per doubling of n"


# interned states after one explore, by shape and n
STATE_PINS = {("long-n", 20): 62, ("long-n", 40): 122, ("one-writer-n", 20): 43, ("one-writer-n", 40): 83}


@pytest.mark.parametrize("shape, n", sorted(STATE_PINS))
def test_interned_states_after_explore(shape, n):
    with recorded_runs() as runs:
        explore(parse_program(SHAPES[shape](n)))
    (run,) = runs
    assert interned_states(run) == STATE_PINS[shape, n]


def test_interned_states_after_census():
    """Many-threads-5: three states a thread, whatever the schedule."""
    with recorded_runs() as runs:
        count_classes(parse_program(many_threads_family(5)))
    (run,) = runs
    assert interned_states(run) == 15


if __name__ == "__main__":  # prints the ratios that the bounds are set from
    for shape in SHAPES:
        print(shape, {unit: round(ratio, 4) for unit, ratio in growth(shape).items()})
