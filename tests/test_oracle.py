"""Enumeration counts, census consistency, and the reference brute-force realizability oracle."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import rvfmc
from rvfmc import Event, VscInstance, explore, parse_program, replay
from rvfmc.oracle import BudgetExceeded, count_classes
from rvfmc.program import InterpreterError
from corpus import MISUSE, PROGRAMS
from reference_oracle import brute_force_vsc, census, enumerate_maximal_traces, iter_vsc_witnesses


def test_unanimous_schedule_count_is_multinomial():
    p = parse_program(PROGRAMS["unanimous"])
    traces = enumerate_maximal_traces(p)
    expected = math.factorial(8) // (math.factorial(2) * math.factorial(3) * math.factorial(3))
    assert len(traces) == expected == 560


def test_single_thread_single_trace():
    p = parse_program("thread t1 { write x 1; r = read x; }")
    assert len(enumerate_maximal_traces(p)) == 1


def test_two_independent_writers():
    p = parse_program(PROGRAMS["disjoint_writers"])
    assert len(enumerate_maximal_traces(p)) == 2


def test_budget_guard():
    p = parse_program(PROGRAMS["unanimous"])
    with pytest.raises(BudgetExceeded):
        enumerate_maximal_traces(p, budget=100)


@pytest.mark.parametrize(
    "source",
    [
        "thread t { unlock m; }",
        # only the schedule where t2 reads 1 releases the mutex
        "thread t1 { write x 1; } thread t2 { a = read x; if a == 1 { unlock m; } }",
    ],
    ids=["always", "schedule-dependent"],
)
def test_unheld_unlock_raises(source):
    p = parse_program(source)
    with pytest.raises(InterpreterError, match="does not hold"):
        count_classes(p)
    with pytest.raises(InterpreterError, match="does not hold"):
        enumerate_maximal_traces(p)
    with pytest.raises(InterpreterError, match="does not hold"):
        explore(p)


@pytest.mark.parametrize("name", sorted(MISUSE))
def test_misuse_programs_raise(name):
    """The explorer and both oracle searches reject each misuse program of
    the corpus, whether every schedule misuses the mutex or only some."""
    p = parse_program(MISUSE[name])
    for run in (explore, count_classes, enumerate_maximal_traces):
        with pytest.raises(InterpreterError, match="does not hold"):
            run(p)


def test_long_trace_within_default_recursion_limit():
    """Census and enumeration of a 5000-event trace in a fresh interpreter,
    which keeps its default recursion limit throughout."""
    script = textwrap.dedent(
        """
        import sys
        from rvfmc import count_classes, parse_program
        from reference_oracle import iter_maximal_traces

        limit = sys.getrecursionlimit()
        p = parse_program("thread t { repeat 5000 { write x 1; } }")
        counts = count_classes(p)
        assert counts.maximal_traces == 1, counts
        assert counts.classes == {"rvf": 1, "rf": 1, "maz": 1}, counts
        (ex,) = iter_maximal_traces(p)
        assert len(ex.events) == 5000
        assert sys.getrecursionlimit() == limit
        """
    )
    src = str(Path(rvfmc.__file__).resolve().parent.parent)
    tests = str(Path(__file__).resolve().parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


def test_enumerated_traces_replay():
    p = parse_program(PROGRAMS["mutex_counter"])
    for ex in enumerate_maximal_traces(p):
        t = replay(p, ex.events)
        assert dict(t.values) == ex.values
        assert frozenset(t.violations) == ex.violations
        assert t.deadlocked == ex.deadlocked


def test_census_single_trace_all_ones():
    p = parse_program("thread t1 { write x 1; r = read x; }")
    traces = enumerate_maximal_traces(p)
    for eq in ("rvf", "rf", "maz"):
        assert census(traces, eq).count == 1


def test_census_representatives_consistent():
    p = parse_program(PROGRAMS["two_writers_one_reader"])
    traces = enumerate_maximal_traces(p)
    res = census(traces, "rvf")
    assert res.count == len(res.representatives) == 3


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_streaming_census_matches_materialized(name):
    """The incremental census must agree with keying materialized traces."""
    p = parse_program(PROGRAMS[name])
    traces = enumerate_maximal_traces(p)
    cc = count_classes(p)
    for eq in ("rvf", "rf", "maz"):
        assert cc.classes[eq] == census(traces, eq).count, eq
    assert cc.maximal_traces == len(traces)
    assert cc.deadlocks == sum(1 for t in traces if t.deadlocked)
    viol = set()
    for t in traces:
        viol |= t.violations
    assert set(cc.assertion_violations) == viol


def test_unknown_equivalence_rejected():
    p = parse_program(PROGRAMS["unanimous"])
    with pytest.raises(ValueError, match="'bogus'"):
        count_classes(p, ("rvf", "bogus"))


def test_one_equivalence_by_name():
    """A bare name is one equivalence, not a sequence of letters."""
    p = parse_program(PROGRAMS["unanimous"])
    assert count_classes(p, "rvf").classes == {"rvf": 1}
    assert count_classes(p, "maz").classes == count_classes(p, ("maz",)).classes == {"maz": 98}


def test_census_steps_one_schedule_per_mazurkiewicz_class():
    """Many-vars-3 has 61 346 steps in its schedule tree; the sleep-set
    census takes 8 308 of them, so a budget of 10 000 is enough."""
    from corpus import many_vars_family

    cc = count_classes(parse_program(many_vars_family(3)), budget=10_000)
    assert cc.maximal_traces == 18_480
    assert cc.classes == {"rvf": 1, "rf": 27, "maz": 1_728}
    assert (cc.assertion_violations, cc.deadlocks) == ([], 0)


def test_family_censuses():
    from corpus import one_var_family, many_threads_family

    cc = count_classes(parse_program(one_var_family(3)), ("rf", "maz"))
    assert cc.classes["rf"] >= 2**3
    assert cc.classes["maz"] >= 2**3
    c2 = count_classes(parse_program(many_threads_family(2)), ("rf",))
    c3 = count_classes(parse_program(many_threads_family(3)), ("rf",))
    assert c2.classes["rf"] < c3.classes["rf"]


# -- brute-force realizability -------------------------------------------------


def test_brute_force_two_event_instance():
    w = Event(1, 1, "W", "x", 1)
    r = Event(2, 1, "R", "x")
    inst = VscInstance((w, r), {r.eid: frozenset({w.eid})})
    witness = brute_force_vsc(inst)
    assert witness is not None and [e.eid for e in witness] == [(1, 1), (2, 1)]


def test_brute_force_cyclic_instance():
    ev = (
        Event(1, 1, "W", "x", 1),
        Event(1, 2, "R", "y"),
        Event(2, 1, "W", "y", 1),
        Event(2, 2, "R", "x"),
    )
    gw = {(1, 2): frozenset({(0, 2)}), (2, 2): frozenset({(0, 1)})}
    assert brute_force_vsc(VscInstance(ev, gw)) is None


def test_brute_force_guard():
    events = tuple(Event(1, i, "W", "x", 1) for i in range(1, 14))
    inst = VscInstance(events, {})
    with pytest.raises(ValueError):
        brute_force_vsc(inst)


def test_all_witnesses_enumerated():
    """Independent reads of one write: both interleavings of the two readers."""
    w = Event(1, 1, "W", "x", 1)
    r1 = Event(2, 1, "R", "x")
    r2 = Event(3, 1, "R", "x")
    inst = VscInstance(
        (w, r1, r2), {r1.eid: frozenset({w.eid}), r2.eid: frozenset({w.eid})}
    )
    witnesses = list(iter_vsc_witnesses(inst))
    assert len(witnesses) == 2
    assert all(seq[0].eid == w.eid for seq in witnesses)
