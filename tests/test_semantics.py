"""Reads-from, causal order, visible writes, and the three equivalence keys."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvfmc import (
    Event,
    causal_order,
    census,
    empty_trace,
    enumerate_maximal_traces,
    extend,
    is_lower_set,
    maz_key,
    parse_program,
    project,
    reads_from,
    refines,
    rf_key,
    rvf_key,
    visible_writes,
)
from rvfmc.semantics import (
    ClockOrder,
    CycleError,
    PartialOrder,
    format_key,
    partial_order,
    program_order,
    sequence_order,
)
from corpus import PROGRAMS

# The running example trace: three threads, events listed in execution order
#   t1: w(x,1) r(x)   t2: w(x,1) r(x) w(y,2)   t3: w(y,1) r(y)
EXAMPLE_SRC = """
thread t1 { write x 1; a = read x; }
thread t2 { write x 1; b = read x; write y 2; }
thread t3 { write y 1; c = read y; }
"""
EXAMPLE_ORDER = [(1, 1), (2, 1), (2, 2), (3, 1), (1, 2), (2, 3), (3, 2)]


def example_trace():
    p = parse_program(EXAMPLE_SRC)
    t = empty_trace(p)
    for eid in EXAMPLE_ORDER:
        e = next(x for x in t.enabled if x.eid == eid)
        t = extend(t, e)
    return t


def test_reads_from_example():
    t = example_trace()
    rf = {r.eid: w.eid for r, w in reads_from(t).items()}
    assert rf[(1, 2)] == (2, 1)  # r(x) in t1 reads t2's write
    assert rf[(2, 2)] == (2, 1)
    assert rf[(3, 2)] == (2, 3)  # r(y) reads w(y,2)


def test_reads_from_own_thread():
    p = parse_program("thread t1 { write x 1; r = read x; }")
    t = empty_trace(p)
    t = extend(t, t.enabled[0])
    t = extend(t, t.enabled[0])
    ((r, w),) = reads_from(t).items()
    assert w.eid == (1, 1)


def test_reads_from_init():
    p = parse_program("thread t1 { r = read x; }")
    t = extend(empty_trace(p), empty_trace(p).enabled[0])
    ((r, w),) = reads_from(t).items()
    assert w.thread == 0 and w.value == 0
    assert t.values[r.eid] == 0


def test_causal_order_example():
    t = example_trace()
    co = causal_order(t)
    assert co.less((2, 3), (3, 2))  # w(y,2) before r(y) via reads-from
    assert not co.ordered((3, 1), (1, 2))  # w(y,1) and t1's r(x) unrelated
    # refined by the trace's own total order
    assert refines(sequence_order(t.events), co)


def test_causal_order_single_thread_is_total():
    p = parse_program("thread t1 { write x 1; r = read x; write y 2; }")
    t = empty_trace(p)
    while t.enabled:
        t = extend(t, t.enabled[0])
    co = causal_order(t)
    ids = sorted(e.eid for e in t.events)
    for a, b in itertools.combinations(ids, 2):
        assert co.ordered(a, b)


def test_causal_order_disjoint_threads_only_po():
    p = parse_program("thread t1 { write x 1; write x 2; }\nthread t2 { write y 1; write y 2; }")
    t = empty_trace(p)
    while t.enabled:
        t = extend(t, t.enabled[0])
    co = causal_order(t)
    assert co.pairs == frozenset({((1, 1), (1, 2)), ((2, 1), (2, 2))})


def test_rf_in_visible_writes_of_causal_order():
    for name in ("unanimous", "store_buffer", "mutex_three", "lost_update"):
        p = parse_program(PROGRAMS[name])
        for ex in enumerate_maximal_traces(p):
            co = causal_order(ex)
            inits = p.init_events
            elems = frozenset([e.eid for e in ex.events] + [i.eid for i in inits])
            full = PartialOrder(elems, co.pairs)
            pool = set(ex.events) | set(inits)
            for r, w in reads_from(ex).items():
                assert w in visible_writes(full, pool, r)


def test_visible_writes_unordered_write_and_init():
    events = [Event(1, 1, "W", "x", 5), Event(2, 1, "R", "x"), Event(0, 1, "W", "x", 0)]
    po = partial_order([e.eid for e in events], [((0, 1), (1, 1)), ((0, 1), (2, 1))])
    vis = visible_writes(po, events, events[1])
    assert {e.eid for e in vis} == {(1, 1), (0, 1)}


def test_visible_writes_hidden_by_interposed_write():
    w1, w2, r = Event(1, 1, "W", "x", 1), Event(1, 2, "W", "x", 2), Event(2, 1, "R", "x")
    po = partial_order(
        [w1.eid, w2.eid, r.eid], [(w1.eid, w2.eid), (w2.eid, r.eid)]
    )
    vis = visible_writes(po, [w1, w2, r], r)
    assert {e.eid for e in vis} == {w2.eid}


def test_visible_writes_excludes_later_write():
    w, r = Event(1, 1, "W", "x", 1), Event(2, 1, "R", "x")
    po = partial_order([w.eid, r.eid], [(r.eid, w.eid)])
    assert visible_writes(po, [w, r], r) == set()


def test_unanimous_census_counts():
    p = parse_program(PROGRAMS["unanimous"])
    traces = enumerate_maximal_traces(p)
    assert census(traces, "maz").count == 98
    assert census(traces, "rf").count == 9
    assert census(traces, "rvf").count == 1


def test_same_value_unread_writes_collapse_in_rvf_only():
    """Two orders of conflicting same-value writes that nobody reads later:
    same rvf key, different maz key."""
    p = parse_program(PROGRAMS["same_value_writers"])
    execs = enumerate_maximal_traces(p)
    # pick two executions: reader first, then both write orders
    pairs = [
        ex
        for ex in execs
        if [e.eid for e in ex.events][0] == (3, 1)
    ]
    assert len(pairs) == 2
    a, b = pairs
    assert rvf_key(a) == rvf_key(b)
    assert maz_key(a) != maz_key(b)


def test_identical_sequences_identical_keys():
    t = example_trace()
    u = example_trace()
    assert rvf_key(t) == rvf_key(u)
    assert rf_key(t) == rf_key(u)
    assert maz_key(t) == maz_key(u)


def test_key_serialization_golden():
    """Canonical one-line text forms are pinned; any encoding drift fails here."""
    t = example_trace()
    assert format_key(rvf_key(t)) == (
        "rvf|(1.1,1.2,2.1,2.2,2.3,3.1,3.2)|(1,1,1,1,2,1,2)|((2.2,3.2))"
    )
    assert format_key(rf_key(t)) == (
        "rf|(1.1,1.2,2.1,2.2,2.3,3.1,3.2)|((1.2,2.1),(2.2,2.1),(3.2,2.3))"
    )
    assert format_key(maz_key(t)) == (
        "maz|(1.1,1.2,2.1,2.2,2.3,3.1,3.2)"
        "|((1.1,1.2),(1.1,2.1),(1.1,2.2),(2.1,1.2),(2.1,2.2),(2.3,3.2),(3.1,2.3),(3.1,3.2))"
    )


def test_census_csv_lines_golden():
    from rvfmc.oracle import count_classes

    cc = count_classes(parse_program(PROGRAMS["unanimous"]))
    assert cc.csv_lines() == ["maz,98", "rf,9", "rvf,1"]


def test_key_equality_is_equivalence_on_corpus():
    """Keys are canonical values, so equality is trivially reflexive,
    symmetric and transitive; spot-check hashability and stability."""
    p = parse_program(PROGRAMS["store_buffer"])
    for ex in enumerate_maximal_traces(p):
        for fn in (rvf_key, rf_key, maz_key):
            k = fn(ex)
            assert hash(k) == hash(fn(ex))
            assert format_key(k) == format_key(fn(ex))
            assert "\n" not in format_key(k)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_partition_coarseness_chain(name):
    """rvf classes <= rf classes <= maz classes on every corpus member."""
    p = parse_program(PROGRAMS[name])
    traces = enumerate_maximal_traces(p)
    n_rvf = census(traces, "rvf").count
    n_rf = census(traces, "rf").count
    n_maz = census(traces, "maz").count
    assert n_rvf <= n_rf <= n_maz


def test_lower_set_and_projection():
    po = partial_order(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert is_lower_set([], po)
    assert is_lower_set(["a"], po)
    assert is_lower_set(["a", "b"], po)
    assert not is_lower_set(["b"], po)  # missing predecessor a
    pr = project(po, ["a", "c"])
    assert pr.pairs == frozenset({("a", "c")})


def test_total_order_refines_suborder():
    po = partial_order([1, 2, 3], [(1, 2)])
    total = partial_order([1, 2, 3], [(1, 2), (2, 3)])
    assert refines(total, po)
    assert not refines(po, total)


def test_cycle_rejected():
    with pytest.raises(ValueError):
        partial_order([1, 2], [(1, 2), (2, 1)])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_causal_order_refined_by_any_schedule(data):
    name = data.draw(st.sampled_from(sorted(PROGRAMS)))
    p = parse_program(PROGRAMS[name])
    t = empty_trace(p)
    while t.enabled:
        e = data.draw(st.sampled_from(sorted(t.enabled, key=lambda e: e.eid)))
        t = extend(t, e)
    assert refines(sequence_order(t.events), causal_order(t))
    assert refines(causal_order(t), program_order(t))


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_causal_order_equals_closure_of_po_and_reads_from(name):
    """On random schedules, the clock-built causal order has exactly the
    pairs of the transitive closure of program order and reads-from edges."""
    p = parse_program(PROGRAMS[name])
    rng = random.Random(name)
    for _ in range(5):
        t = empty_trace(p)
        while t.enabled:
            t = extend(t, rng.choice(sorted(t.enabled, key=lambda e: e.eid)))
        edges = set(program_order(t).pairs)
        edges |= {(w.eid, r.eid) for r, w in reads_from(t).items() if w.thread != 0}
        co = causal_order(t)
        assert co.elements == frozenset(e.eid for e in t.events)
        assert co.pairs == partial_order(co.elements, edges).pairs


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 5), min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=8),
)
def test_clock_order_add_matches_partial_order(lengths, raw_edges):
    """Edges added one at a time give the transitive closure of program
    order and the edges; a cycle raises exactly when the closure has one."""
    lengths = {t: n for t, n in enumerate(lengths, start=1) if n}
    eids = [(t, i) for t, n in lengths.items() for i in range(1, n + 1)]
    if not eids:
        return
    edges = [(eids[a % len(eids)], eids[b % len(eids)]) for a, b in raw_edges]
    edges = [(a, b) for a, b in edges if a != b]
    po = [((t, i), (t, i + 1)) for t, n in lengths.items() for i in range(1, n)]
    order = ClockOrder.program_order(lengths)
    for n, (a, b) in enumerate(edges):
        try:
            want = partial_order(eids, po + edges[: n + 1])
        except ValueError:
            with pytest.raises(CycleError):
                order.add(a, b)
            return
        before = order.less(a, b)
        assert order.add(a, b) == (not before)
        assert order.pairs == want.pairs
        assert all(order.less(x, y) == want.less(x, y) for x in eids for y in eids)
