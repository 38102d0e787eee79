"""Reads-from, causal order, vector-clock orders, and the three equivalence keys."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvfmc import (
    causal_order,
    census,
    empty_trace,
    enumerate_maximal_traces,
    extend,
    maz_key,
    parse_program,
    reads_from,
    rf_key,
    rvf_key,
)
from rvfmc.semantics import ClockOrder, CycleError, format_key
from corpus import PROGRAMS
from reference_closure import _Cycle, _Order, respects

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
    # w(y,1) and t1's r(x) unrelated
    assert not co.less((3, 1), (1, 2)) and not co.less((1, 2), (3, 1))
    # respected by the trace's own total order
    assert respects(t.events, co)


def test_causal_order_single_thread_is_total():
    p = parse_program("thread t1 { write x 1; r = read x; write y 2; }")
    t = empty_trace(p)
    while t.enabled:
        t = extend(t, t.enabled[0])
    co = causal_order(t)
    ids = sorted(e.eid for e in t.events)
    for a, b in itertools.combinations(ids, 2):
        assert co.less(a, b) or co.less(b, a)


def test_causal_order_disjoint_threads_only_po():
    p = parse_program("thread t1 { write x 1; write x 2; }\nthread t2 { write y 1; write y 2; }")
    t = empty_trace(p)
    while t.enabled:
        t = extend(t, t.enabled[0])
    co = causal_order(t)
    assert co.pairs == frozenset({((1, 1), (1, 2)), ((2, 1), (2, 2))})


def test_rf_in_visible_writes_of_causal_order():
    """Each read's source is visible to it in the causal order: a program
    write comes before the read with no conflicting write strictly between;
    with the initial write as source, no conflicting write comes before."""
    for name in ("unanimous", "store_buffer", "mutex_three", "lost_update"):
        p = parse_program(PROGRAMS[name])
        for ex in enumerate_maximal_traces(p):
            less = causal_order(ex).less
            for r, w in reads_from(ex).items():
                conf = [x.eid for x in ex.events if x.kind == "W" and x.var == r.var]
                if w.thread == 0:
                    assert not any(less(x, r.eid) for x in conf)
                else:
                    assert less(w.eid, r.eid)
                    assert not any(less(w.eid, x) and less(x, r.eid) for x in conf)


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


def program_order(lengths: dict[int, int]) -> ClockOrder:
    """Per-thread chains alone; ``lengths`` maps thread id to event count."""
    order = ClockOrder(sorted(lengths))
    k = len(order.threads)
    for u, (t, chain) in enumerate(zip(order.threads, order.rows)):
        chain.extend(tuple(j if v == u else 0 for v in range(k)) for j in range(lengths[t]))
    return order


def test_cycle_rejected():
    order = program_order({1: 2, 2: 1})
    order.add((1, 2), (2, 1))
    with pytest.raises(CycleError):
        order.add((2, 1), (1, 1))
    with pytest.raises(CycleError):
        order.add((1, 2), (1, 1))


def test_clock_order_less_outside_the_order():
    """Ids outside the order (initial writes, an absent thread, index 0, an
    index past the chain) are unordered in either position."""
    order = program_order({1: 2, 2: 2})
    order.add((1, 1), (2, 2))
    inside = [(1, 1), (1, 2), (2, 1), (2, 2)]
    for x in [(0, 1), (3, 1), (1, 0), (2, 0), (1, 3), (2, 3)]:
        for y in inside + [x]:
            assert not order.less(x, y) and not order.less(y, x)
    want = {((1, 1), (1, 2)), ((2, 1), (2, 2)), ((1, 1), (2, 2))}
    assert {(a, b) for a in inside for b in inside if order.less(a, b)} == want


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_causal_order_refined_by_any_schedule(data):
    name = data.draw(st.sampled_from(sorted(PROGRAMS)))
    p = parse_program(PROGRAMS[name])
    t = empty_trace(p)
    while t.enabled:
        e = data.draw(st.sampled_from(sorted(t.enabled, key=lambda e: e.eid)))
        t = extend(t, e)
    co = causal_order(t)
    assert respects(t.events, co)
    assert all(co.less((e.thread, e.index - 1), e.eid) for e in t.events if e.index > 1)


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
        want = _Order(e.eid for e in t.events)
        for e in t.events:
            if e.index > 1:
                want.add((e.thread, e.index - 1), e.eid)
        for r, w in reads_from(t).items():
            if w.thread != 0:
                want.add(w.eid, r.eid)
        co = causal_order(t)
        assert tuple(len(chain) for chain in co.rows) == t.counts
        assert co.pairs == want.pairs


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 5), min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=8),
)
def test_clock_order_add_matches_partial_order(lengths, raw_edges):
    """Edges added one at a time give the transitive closure of program
    order and the edges; a cycle raises exactly when the closure has one,
    and each add reports the rows it rewrote."""
    lengths = {t: n for t, n in enumerate(lengths, start=1) if n}
    eids = [(t, i) for t, n in lengths.items() for i in range(1, n + 1)]
    if not eids:
        return
    edges = [(eids[a % len(eids)], eids[b % len(eids)]) for a, b in raw_edges]
    edges = [(a, b) for a, b in edges if a != b]
    want = _Order(eids)
    for t, n in lengths.items():
        for i in range(1, n):
            want.add((t, i), (t, i + 1))
    order = program_order(lengths)
    for a, b in edges:
        try:
            want.add(a, b)
        except _Cycle:
            with pytest.raises(CycleError):
                order.add(a, b)
            return
        before = order.less(a, b)
        rows = [chain.copy() for chain in order.rows]
        touched = []
        assert order.add(a, b, touched) == (not before)
        # ``touched`` names exactly the rewritten rows
        changed = {(u, j) for u, chain in enumerate(rows) for j, clock in enumerate(chain) if order.rows[u][j] != clock}
        assert changed == {(u, j) for u, first, end in touched for j in range(first, end)}
        assert order.pairs == want.pairs
        assert all(order.less(x, y) == want.less(x, y) for x in eids for y in eids)
