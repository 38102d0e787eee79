"""Exploration behavior: extension, signals, source grouping, leaf sets."""

import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import rvfmc
from rvfmc import (
    ExploreOptions,
    VscInstance,
    empty_trace,
    explore,
    extend,
    parse_program,
)
from rvfmc.explore import (
    _Signal,
    extend_nonreads,
    group_by_value,
    update_backtrack_signals,
    viable_sources,
)
from rvfmc.vsc import Relaxation
from corpus import PROGRAMS, one_var_family, many_threads_family
from reference_oracle import census, enumerate_maximal_traces

ALL_EXPLORE_OPTIONS = [ExploreOptions(*bits) for bits in itertools.product([True, False], repeat=4)]


def test_unanimous_explores_single_trace():
    rep = explore(parse_program(PROGRAMS["unanimous"]))
    assert rep.leaf_count == 1
    assert rep.distinct_rvf_classes() == 1
    assert rep.deadlocks == 0


def test_many_threads_n4_single_trace():
    rep = explore(parse_program(many_threads_family(4)))
    assert rep.leaf_count == 1


def test_single_threaded_single_trace():
    rep = explore(parse_program(PROGRAMS["single_thread"]))
    assert rep.leaf_count == 1


def test_one_var_n2_coarser_than_reads_from():
    p = parse_program(one_var_family(2))
    rep = explore(p)
    assert rep.leaf_count == 1
    assert census(enumerate_maximal_traces(p), "rf").count >= 4


# -- extension ------------------------------------------------------------------


def test_extension_flushes_all_writes():
    p = parse_program(PROGRAMS["unanimous"])
    st = extend_nonreads(empty_trace(p))
    assert len(st.events) == 6
    assert all(e.kind == "W" for e in st.events)
    assert {e.eid for e in st.enabled} == {(2, 3), (3, 3)}


def test_extension_noop_when_reads_first():
    p = parse_program("thread t1 { r = read x; }\nthread t2 { s = read y; }")
    t = empty_trace(p)
    st = extend_nonreads(t)
    assert st is t  # extended in place
    assert st.events == []


def test_extension_appends_pending_release():
    p = parse_program("thread t1 { lock m; unlock m; }")
    t = empty_trace(p)
    t = extend(t, t.enabled[0])  # acquire
    st = extend_nonreads(t)
    assert [e.kind for e in st.events] == ["R", "W"]  # release flushed


# -- backtrack signals ------------------------------------------------------------


def test_signal_set_on_conflicting_other_thread_write():
    from rvfmc.program import Event

    signals = {(1, 1): _Signal("x", 1)}
    update_backtrack_signals([Event(3, 1, "W", "x", 2)], signals)
    assert signals[(1, 1)].fired


def test_signal_unchanged_on_same_thread_or_disjoint_writes():
    from rvfmc.program import Event

    signals = {(1, 1): _Signal("x", 1)}
    update_backtrack_signals(
        [Event(1, 2, "W", "x", 2), Event(2, 1, "W", "y", 1)], signals
    )
    assert not signals[(1, 1)].fired


def test_unanimous_stops_after_first_read():
    """No extension ever reveals a new conflicting write, so the first read's
    mutations settle everything: a single leaf and no second-read branching."""
    rep = explore(parse_program(PROGRAMS["unanimous"]))
    assert rep.leaf_count == 1
    # confirmed against the oracle census (98/9/1 partition but one behavior)
    assert rep.distinct_rvf_classes() == 1


def test_conditional_write_forces_reexploration():
    """A write that exists only after a read saw a specific value must be
    discovered through a backtrack signal; the final behaviors match the
    oracle exactly."""
    p = parse_program(PROGRAMS["conditional_on_value"])
    oracle = enumerate_maximal_traces(p)
    want = {
        (tuple(sorted(e.eid for e in ex.events)), tuple(ex.values[eid] for eid in sorted(ex.values)))
        for ex in oracle
    }
    rep = explore(p)
    got = {
        (tuple(sorted(e.eid for e in ex.events)), tuple(ex.values[eid] for eid in sorted(ex.values)))
        for ex in rep.traces
    }
    assert got == want


# -- viable sources and grouping ---------------------------------------------------


def _trace_after_writes(src: str):
    p = parse_program(src)
    return extend_nonreads(empty_trace(p))


def test_viable_sources_without_map_entry():
    st = _trace_after_writes(PROGRAMS["unanimous"])
    r = next(e for e in st.enabled if e.eid == (2, 3))
    srcs = viable_sources(st, r, {})
    assert [w.eid for w in srcs] == [(0, 1)] + [e.eid for e in st.events if e.kind == "W" and e.var == r.var]
    assert {w.eid for w in srcs} == {(1, 1), (2, 1), (3, 1), (0, 1)}


def test_viable_sources_respects_causal_map():
    st = _trace_after_writes(PROGRAMS["unanimous"])
    r = next(e for e in st.enabled if e.eid == (2, 3))
    cmap = {r.eid: {1: 2, 2: 2, 3: 2, 0: 2}}  # forbid everything current
    assert viable_sources(st, r, cmap) == []
    cmap = {r.eid: {1: 2, 0: 2}}  # forbid only thread 1 and the initial write
    assert {w.eid for w in viable_sources(st, r, cmap)} == {(2, 1), (3, 1)}


def test_viable_sources_unwritten_variable():
    p = parse_program("thread t1 { r = read ghost; }\nthread t2 { write x 1; }")
    st = extend_nonreads(empty_trace(p))
    r = next(e for e in st.enabled if e.kind == "R")
    srcs = viable_sources(st, r, {})
    assert len(srcs) == 1 and next(iter(srcs)).thread == 0


def test_group_by_value_orders_and_partitions():
    p = parse_program(
        "thread t1 { write x 1; write x 1; write x 2; }\nthread t2 { r = read x; }"
    )
    st = extend_nonreads(empty_trace(p))
    r = st.enabled[0]
    srcs = [w for w in viable_sources(st, r, {}) if w.thread != 0]
    groups = group_by_value(srcs)
    assert groups == [(1, frozenset({(1, 1), (1, 2)})), (2, frozenset({(1, 3)}))]


def test_group_by_value_init_joins_zero_group():
    p = parse_program("thread t1 { write x 0; }\nthread t2 { r = read x; }")
    st = extend_nonreads(empty_trace(p))
    r = st.enabled[0]
    groups = group_by_value(viable_sources(st, r, {}))
    assert len(groups) == 1  # the zero-writing program write groups with init
    value, members = groups[0]
    assert value == 0 and len(members) == 2


def test_group_by_value_empty_sources():
    assert group_by_value([]) == []


# -- mutexes and deadlocks -----------------------------------------------------------


def test_deadlock_traces_recorded():
    p = parse_program(PROGRAMS["deadlock_no_unlock"])
    rep = explore(p)
    oracle = enumerate_maximal_traces(p)
    assert rep.deadlocks == sum(1 for t in rep.traces if t.deadlocked) > 0
    assert {frozenset(e.eid for e in ex.events) for ex in rep.traces} == {
        frozenset(e.eid for e in ex.events) for ex in oracle
    }


def test_mutex_critical_sections_explored_in_both_orders():
    p = parse_program(PROGRAMS["mutex_counter"])
    rep = explore(p)
    oracle = enumerate_maximal_traces(p)
    want = {(tuple(sorted(ex.values.items()))) for ex in oracle}
    got = {(tuple(sorted(ex.values.items()))) for ex in rep.traces}
    assert got == want


# -- ablations -------------------------------------------------------------------


@pytest.mark.parametrize(
    "options",
    [
        ExploreOptions(backtrack_signals=False),
        ExploreOptions(closure=False, greedy=False, aux_trace=False),
        ExploreOptions(False, False, False, False),
    ],
)
def test_ablations_preserve_leaf_count_on_unanimous(options):
    base = explore(parse_program(PROGRAMS["unanimous"]))
    rep = explore(parse_program(PROGRAMS["unanimous"]), options)
    assert rep.leaf_count == base.leaf_count == 1


def test_report_counts_consistent():
    rep = explore(parse_program(PROGRAMS["assert_race"]))
    assert rep.leaf_count == len(rep.traces) == len(rep.rvf_keys)
    assert rep.wall_time_ms >= 0
    assert rep.assertion_violations == ["t2#1"]


@pytest.mark.parametrize("name", ["unanimous", "mutex_counter", "conditional_on_value", "lost_update"])
def test_every_leaf_replays_with_identical_values(name):
    from rvfmc import replay

    p = parse_program(PROGRAMS[name])
    rep = explore(p)
    for ex in rep.traces:
        t = replay(p, ex.events)
        assert dict(t.values) == ex.values
        assert t.maximal and t.deadlocked == ex.deadlocked


# -- long traces ---------------------------------------------------------------------


def test_long_writer_single_reader():
    """3000 writes and one read: the read sees the initial value or 1."""
    p = parse_program("thread t1 { repeat 3000 { write x 1; } }\nthread t2 { a = read x; }")
    rep = explore(p)
    assert rep.leaf_count == 2
    assert rep.distinct_rvf_classes() == 2


def test_long_n_closure_keeps_keys():
    """n writes against n reads has n + 1 classes; closure changes none of
    the keys the explorer reaches."""
    p = parse_program("thread t1 { repeat 30 { write x 1; } }\nthread t2 { repeat 30 { a = read x; } }")
    rep = explore(p)
    assert rep.leaf_count == 31
    assert rep.rvf_keys == explore(p, ExploreOptions(closure=False)).rvf_keys


def explore_counting_steps(monkeypatch, source: str):
    """``explore(source)`` and the number of closure steps it took."""
    vsc = sys.modules["rvfmc.vsc"]
    steps = 0
    step = vsc._step

    def counting(*args):
        nonlocal steps
        steps += 1
        return step(*args)

    monkeypatch.setattr(vsc, "_step", counting)
    return explore(parse_program(source)), steps


def test_long_n_closure_steps_per_solver_call(monkeypatch):
    """Each value group that needs a witness is checked against a closure
    the explorer already has instead of closing its instance from program
    order: on long-n 40 the closure steps a read at most 4 times per such
    group (28 when every solver call starts from program order).  A group
    is either refuted at its node or sent to the solver, 820 in all."""
    rep, steps = explore_counting_steps(
        monkeypatch, "thread w { repeat 40 { write x 1; } }\nthread r { repeat 40 { a = read x; } }"
    )
    assert rep.leaf_count == 41
    groups = rep.vsc_calls + rep.node_refutations
    assert groups == 820
    assert steps <= 4 * groups, (steps, rep.vsc_calls, rep.node_refutations)


def test_lock_counter_closure_steps_per_group(monkeypatch):
    """On a lock counter of five threads every group that needs a witness
    fails rule 1 at its node, and node fills re-step only the reads that a
    new write is not yet ordered after: at most 1.5 closure steps per group
    (3.5 with neither)."""
    source = "\n".join(
        f"thread t{i} {{ lock m; a = read x; write x a + 1; unlock m; }}" for i in range(1, 6)
    )
    rep, steps = explore_counting_steps(monkeypatch, source)
    assert rep.leaf_count == 120
    groups = rep.vsc_calls + rep.node_refutations
    assert groups > 0
    assert steps <= 1.5 * groups, (steps, rep.vsc_calls, rep.node_refutations)


def sb_ring(k):
    """Store-buffer ring: thread ti writes xi, then reads x(i-1) and x(i+1)."""
    return "\n".join(
        f"thread t{i} {{ write x{i} 1; a = read x{(i - 2) % k + 1}; b = read x{i % k + 1}; }}"
        for i in range(1, k + 1)
    )


@pytest.mark.parametrize(
    "k, states",
    [(4, (816, 1031, 1052)), (5, (3294, 4609, 4986))],
)
def test_sb_ring_witness_states_pinned(k, states):
    """The witness search's state counts on store-buffer rings, with
    backtrack signals on, under every closure, greedy and aux setting:
    closure on, closure off with greedy on, and both off.  The auxiliary
    trace changes no count.  A change to the search that merges or splits
    states shows here."""
    closed, greedy_only, plain = states
    program = parse_program(sb_ring(k))
    for closure, greedy, aux in itertools.product([True, False], repeat=3):
        rep = explore(program, ExploreOptions(True, closure, greedy, aux))
        want = closed if closure else greedy_only if greedy else plain
        assert rep.witness_states == want, (closure, greedy, aux)
        if k == 5 and closure:
            assert (rep.vsc_calls, rep.node_refutations) == (230, 166), (greedy, aux)


def leaf_outputs(rep):
    return [(ex.events, ex.values, ex.violations, ex.deadlocked) for ex in rep.traces], rep.rvf_keys


def test_node_refutations_change_no_output(monkeypatch):
    """Refuting groups at their node only saves solver calls: with the node
    check off, every option setting gives the same leaves, keys and witness
    states on the corpus, and the solver takes exactly the refuted groups."""
    programs = [parse_program(source) for source in PROGRAMS.values()]
    default = [explore(p, options) for p in programs for options in ALL_EXPLORE_OPTIONS]
    monkeypatch.setattr(Relaxation, "refutes", lambda self, inst, read: False)
    patched = [explore(p, options) for p in programs for options in ALL_EXPLORE_OPTIONS]
    assert sum(rep.node_refutations for rep in default) > 0
    for rep, plain in zip(default, patched):
        assert leaf_outputs(plain) == leaf_outputs(rep)
        assert (plain.witness_states, plain.deadlocks) == (rep.witness_states, rep.deadlocks)
        assert plain.node_refutations == 0
        assert plain.vsc_calls == rep.vsc_calls + rep.node_refutations
        if not rep.options.closure:
            assert rep.node_refutations == 0


def test_explore_restores_recursion_limit():
    """Exploring a 5000-event trace raises the recursion limit only for the
    duration of the call."""
    script = textwrap.dedent(
        """
        import sys
        from rvfmc import explore, parse_program

        limit = sys.getrecursionlimit()
        rep = explore(parse_program("thread t { repeat 5000 { write x 1; } }"))
        assert rep.leaf_count == 1, rep.leaf_count
        assert sys.getrecursionlimit() == limit, (sys.getrecursionlimit(), limit)
        """
    )
    src = str(Path(rvfmc.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


# -- solver instances -----------------------------------------------------------------


def test_explorer_instances_pass_validation(monkeypatch):
    """The explorer builds its solver instances with ``check=False``; with
    validation forced back on, every instance it builds on the corpus under
    every option setting is valid (a VscError would fail the test)."""
    built = []

    def validating(*args, check=True, **kwargs):
        built.append(check)
        return VscInstance(*args, **kwargs)

    monkeypatch.setattr(sys.modules["rvfmc.explore"], "VscInstance", validating)
    for source in PROGRAMS.values():
        p = parse_program(source)
        for options in ALL_EXPLORE_OPTIONS:
            explore(p, options)
    assert built and not any(built)
