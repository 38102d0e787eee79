"""Exploration behavior: extension, signals, source grouping, leaf sets."""

import pytest

from rvfmc import (
    ExploreOptions,
    empty_trace,
    enumerate_maximal_traces,
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
from corpus import PROGRAMS, one_var_family, many_threads_family


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
    from rvfmc import census

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
    assert extend_nonreads(t).events == ()


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
    assert {w.eid for w in srcs} == {(1, 1), (2, 1), (3, 1), (0, 1)}


def test_viable_sources_respects_causal_map():
    st = _trace_after_writes(PROGRAMS["unanimous"])
    r = next(e for e in st.enabled if e.eid == (2, 3))
    cmap = {r.eid: {1: 2, 2: 2, 3: 2, 0: 2}}  # forbid everything current
    assert viable_sources(st, r, cmap) == set()
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
    srcs = {w for w in viable_sources(st, r, {}) if w.thread != 0}
    groups = group_by_value(srcs, st)
    assert [(v, len(g)) for v, g in groups] == [(1, 2), (2, 1)]


def test_group_by_value_init_joins_zero_group():
    p = parse_program("thread t1 { write x 0; }\nthread t2 { r = read x; }")
    st = extend_nonreads(empty_trace(p))
    r = st.enabled[0]
    groups = group_by_value(viable_sources(st, r, {}), st)
    assert len(groups) == 1  # the zero-writing program write groups with init
    value, members = groups[0]
    assert value == 0 and len(members) == 2


def test_group_by_value_empty_sources():
    p = parse_program("thread t1 { r = read x; }")
    st = extend_nonreads(empty_trace(p))
    assert group_by_value(set(), st) == []


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
