"""Exploration behavior: extension, signals, source grouping, leaf sets."""

import itertools
import math
import os
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
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
    replay,
    rvf_key,
)
from rvfmc.explore import (
    extend_nonreads,
    group_by_value,
    update_backtrack_signals,
    viable_sources,
)
from rvfmc.vsc import GoodWrites
from corpus import LONG_READS, PROGRAMS, one_var_family, many_threads_family
from reference_oracle import census, enumerate_maximal_traces, replay_leaves, scan_indexes, scan_viable_sources

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

    signals = {"x": {(1, 1): 1}}
    update_backtrack_signals([Event(3, 1, "W", "x", 2)], signals)
    assert signals == {"x": {}}  # firing takes the signal out of the index


def test_signal_unchanged_on_same_thread_or_disjoint_writes():
    from rvfmc.program import Event

    signals = {"x": {(1, 1): 1}}
    update_backtrack_signals(
        [Event(1, 2, "W", "x", 2), Event(2, 1, "W", "y", 1)], signals
    )
    assert signals == {"x": {(1, 1): 1}}  # unfired, so still in the index


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
        for ex in replay_leaves(p, rep)
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
    assert srcs == scan_viable_sources(st, r, {})
    assert [w.eid for w in srcs] == [(0, 1), (1, 1), (2, 1), (3, 1)]


def test_viable_sources_respects_causal_map():
    st = _trace_after_writes(PROGRAMS["unanimous"])
    r = next(e for e in st.enabled if e.eid == (2, 3))
    cmap = {r.eid: {1: 2, 2: 2, 3: 2, 0: 2}}  # forbid everything current
    assert viable_sources(st, r, cmap) == scan_viable_sources(st, r, cmap) == []
    cmap = {r.eid: {1: 2, 0: 2}}  # forbid only thread 1 and the initial write
    assert viable_sources(st, r, cmap) == scan_viable_sources(st, r, cmap)
    assert [w.eid for w in viable_sources(st, r, cmap)] == [(2, 1), (3, 1)]


def test_viable_sources_unwritten_variable():
    p = parse_program("thread t1 { r = read ghost; }\nthread t2 { write x 1; }")
    st = extend_nonreads(empty_trace(p))
    r = next(e for e in st.enabled if e.kind == "R")
    srcs = viable_sources(st, r, {})
    assert srcs == scan_viable_sources(st, r, {})
    assert len(srcs) == 1 and srcs[0].thread == 0


def test_viable_sources_follow_undo():
    """Sources read the trace's write lists, so an undone write is gone."""
    p = parse_program("thread t1 { write x 1; write x 2; }\nthread t2 { r = read x; }")
    st = extend_nonreads(empty_trace(p))
    r = next(e for e in st.enabled if e.kind == "R")
    assert [w.eid for w in viable_sources(st, r, {})] == [(0, 1), (1, 1), (1, 2)]
    st.undo()
    assert viable_sources(st, r, {}) == scan_viable_sources(st, r, {})
    assert [w.eid for w in viable_sources(st, r, {})] == [(0, 1), (1, 1)]


def test_group_by_value_orders_and_partitions():
    p = parse_program(
        "thread t1 { write x 1; write x 1; write x 2; }\nthread t2 { r = read x; }"
    )
    st = extend_nonreads(empty_trace(p))
    r = st.enabled[0]
    srcs = [w for w in viable_sources(st, r, {}) if w.thread != 0]
    groups = group_by_value(srcs)
    assert groups == [(1, frozenset({(1, 1), (1, 2)})), (2, frozenset({(1, 3)}))]
    assert [group.indices for _, group in groups] == [{1: [1, 2]}, {1: [3]}]


def test_group_by_value_init_joins_zero_group():
    p = parse_program("thread t1 { write x 0; }\nthread t2 { r = read x; }")
    st = extend_nonreads(empty_trace(p))
    r = st.enabled[0]
    groups = group_by_value(viable_sources(st, r, {}))
    assert len(groups) == 1  # the zero-writing program write groups with init
    value, members = groups[0]
    assert value == 0 and members == {(0, 1), (1, 1)}
    assert members.indices == {1: [1]}  # the initial write has no thread


def test_good_writes_sorts_each_thread():
    """A group keeps its members' indices per writing thread in increasing
    order, whatever order the ids come in."""
    group = GoodWrites([(2, 5), (0, 1), (1, 3), (2, 1), (1, 2)])
    assert group == frozenset({(2, 5), (0, 1), (1, 3), (2, 1), (1, 2)})
    assert group.indices == {1: [2, 3], 2: [1, 5]}
    assert GoodWrites(frozenset({(1, 4), (1, 2)})).indices == {1: [2, 4]}


def test_viable_sources_match_the_scan_at_every_node(monkeypatch):
    """At every explorer node, on the corpus under every option setting,
    the sources read off the trace's write lists equal a scan of every
    event, and the trace's indexes equal a scan of its events."""
    module = sys.modules["rvfmc.explore"]
    calls = 0

    def checked(trace, read, cmap):
        nonlocal calls
        calls += 1
        assert (trace.writes, trace.chains) == scan_indexes(trace)
        got = viable_sources(trace, read, cmap)
        assert got == scan_viable_sources(trace, read, cmap), (trace.events, read, cmap)
        return got

    monkeypatch.setattr(module, "viable_sources", checked)
    for source in PROGRAMS.values():
        p = parse_program(source)
        for options in ALL_EXPLORE_OPTIONS:
            explore(p, options)
    assert calls


def test_group_by_value_empty_sources():
    assert group_by_value([]) == []


# -- mutexes and deadlocks -----------------------------------------------------------


def test_deadlock_traces_recorded():
    p = parse_program(PROGRAMS["deadlock_no_unlock"])
    rep = explore(p)
    oracle = enumerate_maximal_traces(p)
    assert rep.deadlocks == sum(1 for t in replay_leaves(p, rep) if t.deadlocked) > 0
    assert {frozenset(e.eid for e in schedule) for schedule in rep.schedules} == {
        frozenset(e.eid for e in ex.events) for ex in oracle
    }


def test_mutex_critical_sections_explored_in_both_orders():
    p = parse_program(PROGRAMS["mutex_counter"])
    rep = explore(p)
    oracle = enumerate_maximal_traces(p)
    want = {(tuple(sorted(ex.values.items()))) for ex in oracle}
    got = {(tuple(sorted(ex.values.items()))) for ex in replay_leaves(p, rep)}
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
    assert rep.leaf_count == len(rep.schedules) == len(rep.rvf_keys)
    assert rep.wall_time_ms >= 0
    assert rep.assertion_violations == ["t2#1"]


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_schedules_and_keys_stay_paired(name):
    """Under every option setting, each schedule replays to a maximal trace
    whose rvf key is the one reported at its index, and the replayed leaves
    give back the report's deadlock count and violations."""
    p = parse_program(PROGRAMS[name])
    for options in ALL_EXPLORE_OPTIONS:
        rep = explore(p, options)
        assert len(rep.schedules) == len(rep.rvf_keys) == rep.leaf_count
        leaves = [replay(p, schedule) for schedule in rep.schedules]
        assert all(t.maximal for t in leaves)
        assert [rvf_key(t) for t in leaves] == rep.rvf_keys
        assert sum(t.deadlocked for t in leaves) == rep.deadlocks
        assert sorted(set().union(*(t.violations for t in leaves))) == rep.assertion_violations


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


def test_lock_counter_memory_peak():
    """Six threads incrementing one counter under one mutex: 720 leaves,
    each kept with its key.  Integer keys hold the traced peak under 3 MiB;
    keys with a pair tuple per ordered pair of reads took about 5.5 MiB."""
    p = parse_program(
        "\n".join(f"thread t{t} {{ lock m; a = read x; write x a + 1; unlock m; }}" for t in range(6))
    )
    tracemalloc.start()
    try:
        rep = explore(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.leaf_count == rep.distinct_rvf_classes() == 720
    assert peak < 3 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_long_reads_memory_peak():
    """3000 reads of x with one write elsewhere: the explorer keeps one
    good-writes map and one causal map along its path and takes back a
    child's entries when the child returns, so the traced peak stays under
    16 MiB (about 8 MiB).  A copy of the good-writes map per child, kept
    for the child's whole subtree, grew as the square of the depth: 174 MiB
    here."""
    p = parse_program(LONG_READS)
    tracemalloc.start()
    try:
        rep = explore(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.leaf_count == 1
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.2f} MiB"


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
    fails rule 1 at its node, node fills re-step only the reads that a new
    write is not yet ordered after, and a step never puts its own read back
    on the worklist: 660 closure steps for 980 groups (3 580 with none of
    these, 980 with all but the last)."""
    source = "\n".join(
        f"thread t{i} {{ lock m; a = read x; write x a + 1; unlock m; }}" for i in range(1, 6)
    )
    rep, steps = explore_counting_steps(monkeypatch, source)
    assert rep.leaf_count == 120
    assert (rep.vsc_calls, rep.node_refutations) == (0, 980)
    assert steps == 660


def lock_counter(k):
    """k threads incrementing one counter under one mutex."""
    return "\n".join(f"thread t{i} {{ lock m; a = read x; write x a + 1; unlock m; }}" for i in range(1, k + 1))


def explore_counting_closures(monkeypatch, source: str):
    """``explore(source)``, the closures it computed (``vsc._extend``
    calls) and how many of them started from an empty order."""
    vsc = sys.modules["rvfmc.vsc"]
    calls = empty = 0
    extend_closure = vsc._extend

    def counting(base, chains, good_writes):
        nonlocal calls, empty
        calls += 1
        empty += base is None or not any(base.rows)
        return extend_closure(base, chains, good_writes)

    monkeypatch.setattr(vsc, "_extend", counting)
    return explore(parse_program(source)), calls, empty


@pytest.mark.parametrize(
    "source, closures",
    [
        (lock_counter(5), (320, 20)),
        ("thread w { repeat 25 { write x 1; } }\nthread r { repeat 25 { a = read x; } }", (350, 1)),
    ],
    ids=["lock-counter-5", "long-n-25"],
)
def test_node_closures_are_lazy(monkeypatch, source, closures):
    """A node closes its trace only when its first group needs a witness,
    and starts from the nearest ancestor's closure, so the closures of a
    run are the solver's pre-passes plus one per such node, and only the
    first fills along a path start from the empty order.  A node that
    closed its trace eagerly, or from program order, makes more of one or
    the other."""
    _, calls, empty = explore_counting_closures(monkeypatch, source)
    assert (calls, empty) == closures


def test_node_without_closure_is_an_error(monkeypatch):
    """A node's trace witnesses its good writes, so its closure exists; a
    node told otherwise stops the run instead of refuting every group."""
    monkeypatch.setattr(sys.modules["rvfmc.explore"], "closure", lambda chains, good_writes, start=None: None)
    with pytest.raises(RuntimeError, match="no closure"):
        explore(parse_program(lock_counter(2)))


def test_fills_read_exactly_what_the_closure_lacks(monkeypatch):
    """On the corpus under every option, each node fill hands the closure
    the reads and events it lacks, read off the live path state: the reads
    that the closure constrains are the good-writes map's first keys, so
    its new reads are the map's last keys, the end that ``vsc._extend``
    walks from; and each live chain's suffix past the closure's rows is
    that thread's events of the node's trace that the rows lack."""
    explore_module = sys.modules["rvfmc.explore"]
    explorer = explore_module._Explorer
    node, traces = explorer._node, []  # the traces of the nodes on the stack

    def tracking(self, trace):
        traces.append(trace)
        yield from node(self, trace)
        traces.pop()

    fills = 0
    close = explore_module.closure

    def checking(chains, goodw, start):
        nonlocal fills
        fills += 1
        entries = start.entries
        assert list(goodw)[: len(entries)] == list(entries)
        for t, chain in chains.items():
            done = len(start.rows[start.pos[t]])
            events = [e for e in traces[-1].events if e.thread == t]
            assert done <= len(events) and chain[done:] == events[done:], t
        return close(chains, goodw, start)

    monkeypatch.setattr(explorer, "_node", tracking)
    monkeypatch.setattr(explore_module, "closure", checking)
    for source in PROGRAMS.values():
        program = parse_program(source)
        for options in ALL_EXPLORE_OPTIONS:
            explore(program, options)
    assert fills > 0


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


def test_sb_ring_solver_calls_never_backtrack(monkeypatch):
    """Every solver call on a store-buffer ring of five threads (the
    benchmark's sb-ring-5 up to names) finds its witness on the search's
    first descent: n + 1 states for n events.  The witness states stay
    those pinned above."""
    explore_module = sys.modules["rvfmc.explore"]
    calls = []
    search = explore_module.verify_sc

    def recording(inst, *args, **kwargs):
        result = search(inst, *args, **kwargs)
        calls.append((result.states_processed, len(inst.events) + 1))
        return result

    monkeypatch.setattr(explore_module, "verify_sc", recording)
    rep = explore(parse_program(sb_ring(5)))
    assert (rep.vsc_calls, rep.witness_states, len(calls)) == (230, 3294, 230)
    assert all(states == straight for states, straight in calls)


def test_mutex_singleton_groups_made_once_per_release(monkeypatch):
    """A mutex read groups each release it may take as a singleton, made
    once per release and shared by every later read of the mutex: on a lock
    counter of four threads there are five releases (the initial write and
    four unlocks), whatever the number of acquire reads."""
    explore_module = sys.modules["rvfmc.explore"]
    made = []

    def counting(eids):
        made.append(tuple(eids))
        return GoodWrites(eids)

    monkeypatch.setattr(explore_module, "GoodWrites", counting)
    source = "\n".join(f"thread t{i} {{ lock m; a = read x; write x a + 1; unlock m; }}" for i in range(1, 5))
    program = parse_program(source)
    rep = explore(program)
    assert rep.leaf_count == 24
    releases = {program.init_event("m").eid} | {(t, 4) for t in range(1, 5)}
    singletons = [eids for eids in made if set(eids) <= releases]
    assert sorted(singletons) == sorted((eid,) for eid in releases)


def leaf_outputs(rep):
    """A leaf's schedule fixes its values, violations and deadlock on replay."""
    return rep.schedules, rep.rvf_keys, rep.assertion_violations


def test_node_refutations_change_no_output(monkeypatch):
    """Refuting groups at their node only saves solver calls: with the node
    check off (every conflicting write visible at every read), every option
    setting gives the same leaves, keys and witness states on the corpus,
    and the solver takes exactly the refuted groups."""
    programs = [parse_program(source) for source in PROGRAMS.values()]
    default = [explore(p, options) for p in programs for options in ALL_EXPLORE_OPTIONS]
    monkeypatch.setattr(
        sys.modules["rvfmc.explore"], "visible", lambda order, read: (dict.fromkeys(order.threads, (0, math.inf)), True)
    )
    patched = [explore(p, options) for p in programs for options in ALL_EXPLORE_OPTIONS]
    assert sum(rep.node_refutations for rep in default) > 0
    for rep, plain in zip(default, patched):
        assert leaf_outputs(plain) == leaf_outputs(rep)
        assert (plain.witness_states, plain.deadlocks) == (rep.witness_states, rep.deadlocks)
        assert plain.node_refutations == 0
        assert plain.vsc_calls == rep.vsc_calls + rep.node_refutations
        if not rep.options.closure:
            assert rep.node_refutations == 0


def test_explore_leaves_the_recursion_limit_alone():
    """In a fresh interpreter where setting the recursion limit raises, a
    program 3000 nodes deep explores under the default limit."""
    script = textwrap.dedent(
        f"""
        import sys
        from rvfmc import explore, parse_program

        def forbidden(limit):
            raise AssertionError("explore set the recursion limit")

        sys.setrecursionlimit = forbidden
        limit = sys.getrecursionlimit()
        rep = explore(parse_program({LONG_READS!r}))
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


def test_explore_in_two_threads_at_once():
    """Two threads explore at once, the second 10 ms after the first and
    3000 nodes deep; neither depends on a process-wide setting that the
    other changes."""
    results = {}

    def run(name, source):
        try:
            results[name] = explore(parse_program(source)).leaf_count
        except BaseException as exc:
            results[name] = exc

    long_n = "thread w { repeat 20 { write x 1; } }\nthread r { repeat 20 { a = read x; } }"
    first = threading.Thread(target=run, args=("long-n-20", long_n))
    second = threading.Thread(target=run, args=("long-reads", LONG_READS))
    first.start()
    time.sleep(0.01)
    second.start()
    first.join()
    second.join()
    assert results == {"long-n-20": 21, "long-reads": 1}


# -- solver instances -----------------------------------------------------------------


def test_explorer_instances_pass_validation(monkeypatch):
    """The explorer builds its solver instances with ``check=False`` and
    its trace's chains; with validation forced back on, every instance it
    builds on the corpus under every option setting is valid, chains
    included (a VscError would fail the test)."""
    built = []

    def validating(*args, check=True, **kwargs):
        built.append((check, kwargs.get("chains") is not None))
        return VscInstance(*args, **kwargs)

    monkeypatch.setattr(sys.modules["rvfmc.explore"], "VscInstance", validating)
    for source in PROGRAMS.values():
        p = parse_program(source)
        for options in ALL_EXPLORE_OPTIONS:
            explore(p, options)
    assert built and set(built) == {(False, True)}
