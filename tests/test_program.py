"""Parser and interpreter behavior."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvfmc import (
    ParseError,
    empty_trace,
    explore,
    extend,
    parse_program,
    replay,
)
from rvfmc.program import InterpreterError
from corpus import MISUSE, NESTED_REPEATS, UNANIMOUS, PROGRAMS, deep_program
from reference_oracle import enumerate_maximal_traces, scan_indexes


def access_count(program) -> int:
    """Reads, writes, acquires and releases in the unrolled threads."""
    return sum(1 for t in program.threads for op in t.ops if op[0] in {"write", "read", "lock", "unlock"})


def test_unanimous_program_shape():
    p = parse_program(UNANIMOUS)
    assert len(p.threads) == 3
    assert access_count(p) == 8
    assert p.variables == ("x", "y")
    assert p.mutexes == ()


def test_empty_source_parses():
    p = parse_program("")
    assert p.threads == ()
    t = empty_trace(p)
    assert t.enabled == ()
    assert t.maximal and not t.deadlocked


def test_duplicate_thread_name_rejected():
    with pytest.raises(ParseError):
        parse_program("thread t1 { write x 1; } thread t1 { write x 2; }")


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_program("thread t1 {\n  write x ; }")
    assert exc.value.line == 2


def test_nonliteral_loop_bound_rejected():
    with pytest.raises(ParseError):
        parse_program("thread t1 { repeat n { write x 1; } }")


def test_unknown_local_in_expression_rejected():
    with pytest.raises(ParseError):
        parse_program("thread t1 { write x undefined_name; }")


def test_var_also_mutex_rejected():
    with pytest.raises(ParseError):
        parse_program("thread t1 { lock x; write x 1; unlock x; }")


def test_unanimous_initial_enabled():
    p = parse_program(UNANIMOUS)
    t = empty_trace(p)
    assert {(e.thread, e.index) for e in t.enabled} == {(1, 1), (2, 1), (3, 1)}
    assert all(e.kind == "W" and e.var == "x" and e.value == 1 for e in t.enabled)


def test_single_read_enabled():
    p = parse_program("thread t1 { r0 = read x; }")
    t = empty_trace(p)
    (e,) = t.enabled
    assert e.eid == (1, 1) and e.kind == "R" and e.var == "x"


def test_extend_write_records_value():
    p = parse_program(UNANIMOUS)
    t = empty_trace(p)
    e = next(x for x in t.enabled if x.thread == 2)
    t2 = extend(t, e)
    assert t2 is t  # extended in place
    assert t2.values[(2, 1)] == 1
    assert t2.events == [e]


def test_read_before_any_write_sees_zero():
    p = parse_program("thread t1 { r0 = read x; }\nthread t2 { write x 9; }")
    t = empty_trace(p)
    r = next(e for e in t.enabled if e.kind == "R")
    t2 = extend(t, r)
    assert t2.values[r.eid] == 0


def test_extend_not_enabled_rejected():
    p = parse_program(UNANIMOUS)
    t = empty_trace(p)
    bad = next(iter(t.enabled))
    t2 = extend(t, bad)
    with pytest.raises(ValueError):
        extend(t2, bad)


def test_mutex_blocks_second_acquirer():
    p = parse_program(
        "thread t1 { lock m; unlock m; }\nthread t2 { lock m; unlock m; }"
    )
    t = empty_trace(p)
    assert len(t.enabled) == 2
    t2 = extend(t, next(e for e in t.enabled if e.thread == 1))
    assert {e.thread for e in t2.enabled} == {1}  # t2 blocked on held m


def test_deadlock_is_maximal_with_flag():
    p = parse_program(PROGRAMS["deadlock_no_unlock"])
    t = empty_trace(p)
    t = extend(t, next(e for e in t.enabled if e.thread == 1))  # t1 takes a
    t = extend(t, next(e for e in t.enabled if e.thread == 2))  # t2 takes b
    assert t.maximal and t.deadlocked


def test_release_is_write_acquire_is_read():
    p = parse_program("thread t1 { lock m; unlock m; }")
    t = empty_trace(p)
    (acq,) = t.enabled
    assert acq.kind == "R" and acq.var == "m"
    t = extend(t, acq)
    (rel,) = t.enabled
    assert rel.kind == "W" and rel.var == "m" and rel.value == 0


def test_assertion_status_per_trace():
    p = parse_program(PROGRAMS["assert_never_fails"])
    for ex in enumerate_maximal_traces(p):
        assert not ex.violations
    p = parse_program(PROGRAMS["assert_always_fails"])
    for ex in enumerate_maximal_traces(p):
        assert ex.violations == {"t2#1"}


def test_racy_assertion_fails_on_some_traces_only():
    p = parse_program(PROGRAMS["assert_race"])
    outcomes = {bool(ex.violations) for ex in enumerate_maximal_traces(p)}
    assert outcomes == {True, False}


def test_assertion_status_of_live_trace():
    p = parse_program("thread t1 { write x 1; }\nthread t2 { r = read x; assert r == 1; }")
    t = empty_trace(p)
    t = extend(t, next(e for e in t.enabled if e.thread == 2))  # reads 0
    assert t.violations == ["t2#1"]


def test_int64_wraparound():
    """Arithmetic and literals past the 64-bit range both wrap."""
    big = 2**62
    p = parse_program(f"thread t1 {{ a = {big}; write x a * 4; }}")
    t = empty_trace(p)
    (e,) = t.enabled
    assert e.value == 0  # 2**64 wraps to 0
    for value in ("9223372036854775807 + 1", "9223372036854775808"):
        p = parse_program(f"thread t1 {{ a = {value}; if a < 0 {{ write x 1; }} else {{ write x 2; }} }}")
        (e,) = empty_trace(p).enabled
        assert e.value == 1, value
    p = parse_program("thread t1 { write x 18446744073709551617; a = read x; assert a == 1; }")
    (e,) = empty_trace(p).enabled
    assert e.value == 1
    assert explore(p).assertion_violations == []


def test_unary_minus_and_precedence():
    p = parse_program("thread t1 { a = -3 + 2 * 4; write x a; }")
    (e,) = empty_trace(p).enabled
    assert e.value == 5


@pytest.mark.parametrize("shape", ["parens", "negations", "sum", "ifs"])
def test_nesting_limit(shape):
    """100 levels parse, explore and evaluate; the 101st level is a
    ParseError at the token that opens it, also far past the limit."""
    src, _ = deep_program(shape, 100)
    p = parse_program(src)
    report = explore(p)
    assert report.leaf_count == 1
    (schedule,) = report.schedules
    assert schedule[0].value == (101 if shape == "sum" else 1)
    _, col = deep_program(shape, 101)
    for n in (101, 1200, 3000, 5000):
        with pytest.raises(ParseError) as exc:
            parse_program(deep_program(shape, n)[0])
        assert (exc.value.line, exc.value.col) == (1, col)
        assert "nested deeper than 100 levels" in str(exc.value)


def test_nesting_limit_counts_blocks_and_expressions_together():
    ifs = "if 0 == 0 { " * 60
    inner = "(" * 40 + "1" + ")" * 40
    parse_program("thread t { " + ifs + f"write x {inner}; " + "} " * 60 + "}")
    with pytest.raises(ParseError):
        parse_program("thread t { " + ifs + f"write x -{inner}; " + "} " * 60 + "}")


def test_repeat_unrolls():
    p = parse_program("thread t1 { repeat 3 { write x 1; } }")
    assert access_count(p) == 3


def test_unroll_limit():
    """A repeat may take its thread to at most 100 000 instructions.
    Nested bounds multiply, and the compiler raises at the outer repeat
    after one copy of its body instead of unrolling the rest; every
    instruction before the repeat counts."""
    with pytest.raises(ParseError) as exc:
        parse_program(NESTED_REPEATS)
    assert (exc.value.line, exc.value.col) == (1, 12)
    assert "a thread unrolls to more than 100000 instructions" in str(exc.value)
    p = parse_program("thread t { repeat 1000 { repeat 100 { write x 1; } } } thread u { write x 2; }")
    assert [len(t.ops) for t in p.threads] == [100_000, 1]
    for src in (
        "thread t { write y 1; repeat 100000 { write x 1; } }",
        "thread t { a = 2; repeat 50000 { a = 1; write x a; } }",
        "thread t { repeat 50001 { if 0 == 0 { write x 1; } } }",
    ):
        with pytest.raises(ParseError, match="more than 100000"):
            parse_program(src)


def test_repeat_of_an_empty_body_stops_at_once():
    p = parse_program("thread t { repeat 1000000000000000000 { } write x 1; }")
    assert access_count(p) == 1


def test_locals_default_to_zero_in_untaken_branch():
    p = parse_program(
        "thread t1 { f = read x; if f == 1 { a = 7; } write y a; }"
    )
    t = empty_trace(p)
    (r,) = t.enabled
    t = extend(t, r)  # reads 0, branch untaken
    (w,) = t.enabled
    assert w.value == 0


def test_trace_length_bounded_by_static_accesses():
    for name, src in PROGRAMS.items():
        p = parse_program(src)
        bound = access_count(p)
        for ex in enumerate_maximal_traces(p):
            assert len(ex.events) <= bound


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_replay_determinism(data):
    """Replaying the events of any produced trace reproduces values and frontier."""
    name = data.draw(st.sampled_from(sorted(PROGRAMS)))
    p = parse_program(PROGRAMS[name])
    t = empty_trace(p)
    while t.enabled:
        e = data.draw(st.sampled_from(sorted(t.enabled, key=lambda e: e.eid)))
        t = extend(t, e)
    again = replay(p, t.events)
    assert again.events == t.events
    assert again.values == t.values
    assert again.enabled == t.enabled
    assert again.violations == t.violations


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_per_thread_subsequence_is_deterministic_prefix(data):
    """A thread's event subsequence is determined by the values its reads saw."""
    name = data.draw(st.sampled_from(sorted(PROGRAMS)))
    p = parse_program(PROGRAMS[name])
    t = empty_trace(p)
    while t.enabled:
        e = data.draw(st.sampled_from(sorted(t.enabled, key=lambda e: e.eid)))
        t = extend(t, e)
    for thread in p.threads:
        seq = [e for e in t.events if e.thread == thread.tid]
        assert [e.index for e in seq] == list(range(1, len(seq) + 1))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_undo_restores_every_prefix(data):
    """Undoing a random schedule step by step passes through exactly the
    traces that replaying its prefixes builds, and ends at the empty trace."""
    name = data.draw(st.sampled_from(sorted(PROGRAMS)))
    p = parse_program(PROGRAMS[name])
    t = empty_trace(p)
    while t.enabled:
        extend(t, data.draw(st.sampled_from(t.enabled)))
    events = list(t.events)
    for i in range(len(events), -1, -1):
        want = replay(p, events[:i])
        assert t.events == want.events
        assert t.values == want.values
        assert t.enabled == want.enabled
        assert t.violations == want.violations
        assert t.deadlocked == want.deadlocked
        assert t == want  # threads, memory and mutex holders too
        if i:
            t.undo()
    assert t == empty_trace(p)


def test_indexes_match_a_scan_on_random_walks():
    """Seeded random walks of ``extend`` and ``undo`` over the corpus and
    the programs that misuse a mutex: after every step the write lists and
    chains equal a scan of the events, and an ``extend`` that raises
    ``InterpreterError`` leaves them as they were.  The walks reach mutex
    releases, which are writes of their mutex."""
    rng = random.Random(20261019)
    raised = releases = 0
    for source in [*PROGRAMS.values(), *MISUSE.values()]:
        p = parse_program(source)
        for _ in range(10):
            t = empty_trace(p)
            for _ in range(40):
                if not t.enabled or (t.events and rng.random() < 0.3):
                    if not t.events:
                        break
                    t.undo()
                else:
                    before = ({v: list(ws) for v, ws in t.writes.items()}, [list(c) for c in t.chains])
                    try:
                        extend(t, rng.choice(t.enabled))
                    except InterpreterError:
                        raised += 1
                        assert (t.writes, t.chains) == before
                releases += sum(len(t.writes[m]) for m in p.mutexes)
                assert (t.writes, t.chains) == scan_indexes(t)
    assert raised and releases


def test_indexes_catch_up_after_many_steps():
    """Indexes read only now and then, after runs of steps and undos that
    often take the same events again, still equal a scan of the events."""
    rng = random.Random(7)
    for source in PROGRAMS.values():
        p = parse_program(source)
        t = empty_trace(p)
        for _ in range(200):
            for _ in range(rng.randint(1, 8)):
                if t.events and (not t.enabled or rng.random() < 0.45):
                    t.undo()
                elif t.enabled:
                    extend(t, rng.choice(t.enabled))
            assert (t.writes, t.chains) == scan_indexes(t)
