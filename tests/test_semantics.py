"""The class keys against their references, vector-clock orders, and the
reference reads-from, causal order and keys of ``reference_oracle``."""

import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvfmc import count_classes, empty_trace, explore, extend, parse_program, rvf_key
from rvfmc import oracle
from rvfmc.program import InterpreterError
from rvfmc.semantics import KeyBuilder
from rvfmc.vsc import Closure, CycleError
from corpus import MISUSE, PROGRAMS
from reference_closure import _Cycle, _Order, clock_less, clock_pairs
from test_golden import key_partition
from reference_oracle import (
    _maximal,
    causal_order,
    census,
    encode_rvf_key,
    enumerate_maximal_traces,
    format_key,
    iter_maximal_traces,
    maz_key,
    read_pairs,
    reads_from,
    reference_rvf_key,
    rf_key,
)

PROGRAM_DIR = Path(__file__).resolve().parent.parent / "programs"
# the corpus, its misuse programs and the bundled programs, by test id
KEYED_SOURCES = {
    **PROGRAMS,
    **{f"misuse-{name}": src for name, src in MISUSE.items()},
    **{f"prog-{path.stem}": path.read_text() for path in sorted(PROGRAM_DIR.glob("*.prog"))},
}

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
    """t2's r(x) precedes t3's r(y) through w(y,2), which r(y) reads; t1's
    r(x) is unordered with both."""
    t = example_trace()
    assert read_pairs(rvf_key(t), t) == (((2, 2), (3, 2)),)
    assert rvf_key(t) == encode_rvf_key(reference_rvf_key(t))


def test_causal_order_single_thread_is_total():
    """In a one-thread trace every pair of reads is ordered."""
    p = parse_program("thread t1 { write x 1; r = read x; write y 2; s = read y; u = read z; }")
    t = empty_trace(p)
    while t.enabled:
        t = extend(t, t.enabled[0])
    reads = [e.eid for e in t.events if e.kind == "R"]
    assert read_pairs(rvf_key(t), t) == tuple(itertools.combinations(reads, 2))


def test_rf_in_visible_writes_of_causal_order():
    """Each read's source is visible to it in the reference causal order: a
    program write comes before the read with no conflicting write strictly
    between; with the initial write as source, no conflicting write comes
    before."""
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
    assert format_key(rvf_key(t)) == "rvf|(2,3,2,1,1,1,1,2,1,2)|(0,0,2)"
    assert format_key(rf_key(t)) == (
        "rf|(1.1,1.2,2.1,2.2,2.3,3.1,3.2)|((1.2,2.1),(2.2,2.1),(3.2,2.3))"
    )
    assert format_key(maz_key(t)) == (
        "maz|(1.1,1.2,2.1,2.2,2.3,3.1,3.2)"
        "|((1.1,1.2),(1.1,2.1),(1.1,2.2),(2.1,1.2),(2.1,2.2),(2.3,3.2),(3.1,2.3),(3.1,3.2))"
    )


def test_census_csv_lines_golden():
    cc = count_classes(parse_program(PROGRAMS["unanimous"]))
    assert [f"{eq},{n}" for eq, n in sorted(cc.classes.items())] == ["maz,98", "rf,9", "rvf,1"]


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


def program_order(lengths: dict[int, int]) -> Closure:
    """Per-thread chains alone; ``lengths`` maps thread id to event count."""
    order = Closure(sorted(lengths))
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
            assert not clock_less(order, x, y) and not clock_less(order, y, x)
    want = {((1, 1), (1, 2)), ((2, 1), (2, 2)), ((1, 1), (2, 2))}
    assert {(a, b) for a in inside for b in inside if clock_less(order, a, b)} == want


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_causal_order_refined_by_any_schedule(data):
    """Every read pair of the key is in trace order, and contains program
    order among the reads of each thread."""
    name = data.draw(st.sampled_from(sorted(PROGRAMS)))
    p = parse_program(PROGRAMS[name])
    t = empty_trace(p)
    while t.enabled:
        e = data.draw(st.sampled_from(sorted(t.enabled, key=lambda e: e.eid)))
        t = extend(t, e)
    ro = set(read_pairs(rvf_key(t), t))
    at = {e.eid: i for i, e in enumerate(t.events)}
    assert all(at[a] < at[b] for a, b in ro)
    reads = [e.eid for e in t.events if e.kind == "R"]
    assert all((a, b) in ro for a, b in itertools.combinations(reads, 2) if a[0] == b[0])


@pytest.mark.parametrize("name", KEYED_SOURCES)
def test_causal_order_equals_closure_of_po_and_reads_from(name):
    """On every maximal trace of the corpus and the bundled programs (of a
    misuse program, up to its interpreter error), the key equals the
    reference key: its read pairs are exactly the read pairs of the
    transitive closure of program order and reads-from edges."""
    try:
        for ex in iter_maximal_traces(parse_program(KEYED_SOURCES[name])):
            assert rvf_key(ex) == encode_rvf_key(reference_rvf_key(ex))
    except InterpreterError:
        assert name.startswith("misuse-")


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
        before = clock_less(order, a, b)
        rows = [chain.copy() for chain in order.rows]
        touched = []
        assert order.add(a, b, touched) == (not before)
        # ``touched`` names exactly the rewritten rows
        changed = {(u, j) for u, chain in enumerate(rows) for j, clock in enumerate(chain) if order.rows[u][j] != clock}
        assert changed == {(u, j) for u, first, end in touched for j in range(first, end)}
        assert clock_pairs(order) == want.pairs
        assert all(clock_less(order, x, y) == want.less(x, y) for x in eids for y in eids)


def test_rvf_key_of_a_trace_without_events():
    t = empty_trace(parse_program("thread t1 { a = 1; }"))
    assert rvf_key(t) == encode_rvf_key(reference_rvf_key(t)) == ("rvf", (0,), ())


def _compact(key) -> bool:
    """``("rvf", tuple of ints, tuple of ints)``, with no bools among the ints."""
    return (
        type(key) is tuple
        and len(key) == 3
        and key[0] == "rvf"
        and all(type(part) is tuple and all(type(v) is int for v in part) for part in key[1:])
    )


def test_explorer_and_census_keys_are_integers_only(monkeypatch):
    """Every leaf key of the explorer and every key the census counts is a
    tag and two flat tuples of ints: no pair tuples.  The census keys at
    most one schedule per Mazurkiewicz class, and fewer where it adds a
    stored subtree's counts instead of walking it: unanimous keys 54
    leaves for its 98 classes."""
    counted = []

    class RecordingKeys(KeyBuilder):
        def rvf_key(self):
            counted.append(super().rvf_key())
            return counted[-1]

    monkeypatch.setattr(oracle, "KeyBuilder", RecordingKeys)
    keyed = {
        "unanimous": (54, 98),
        "store_buffer": (3, 3),
        "mutex_three": (6, 6),
        "lost_update": (12, 12),
        "conditional_on_value": (3, 3),
    }
    for name, (leaves, classes) in keyed.items():
        p = parse_program(PROGRAMS[name])
        assert all(_compact(k) for k in explore(p).rvf_keys), name
        counted.clear()
        cc = count_classes(p, ("rvf", "maz"))
        assert (len(counted), cc.classes["maz"]) == (leaves, classes), name
        assert all(_compact(k) for k in counted), name


@pytest.mark.parametrize("name", KEYED_SOURCES)
def test_key_builder_follows_extend_and_undo(name):
    """A seeded walk of steps and undos, with a builder pushed and popped
    beside the trace: after each, its rvf key is the from-scratch key and
    the reference key."""
    p = parse_program(KEYED_SOURCES[name])
    rng = random.Random(name)
    trace = empty_trace(p)
    keys = KeyBuilder(trace)
    for _ in range(300):
        enabled = trace.enabled
        if enabled and (not trace.events or rng.random() < 0.6):
            e = rng.choice(enabled)
            try:
                extend(trace, e)
            except InterpreterError:
                assert name.startswith("misuse-")
                continue
            keys.push(e)
        elif trace.events:
            keys.pop(trace.undo())
        else:
            break
        assert keys.rvf_key() == rvf_key(trace) == encode_rvf_key(reference_rvf_key(trace))


@pytest.mark.parametrize("name", KEYED_SOURCES)
def test_key_builder_partitions_match_references(name):
    """Driven through every schedule, the builder's rf key splits the
    maximal traces as the reference key does, its rvf key is the
    from-scratch key, and the census counts the reference's maz classes
    (of a misuse program, up to its interpreter error)."""
    p = parse_program(KEYED_SOURCES[name])
    trace = empty_trace(p)
    keys = KeyBuilder(trace)
    got, want, maz = [], [], set()
    try:
        for trace in _maximal(trace, 10_000_000, keys.push, keys.pop):
            assert keys.rvf_key() == rvf_key(trace)
            got.append(keys.rf_key())
            want.append(rf_key(trace))
            maz.add(maz_key(trace))
    except InterpreterError:
        assert name.startswith("misuse-")
        with pytest.raises(InterpreterError):
            count_classes(p, "maz")
    else:
        assert count_classes(p, "maz").classes["maz"] == len(maz)
    assert key_partition(got) == key_partition(want)
