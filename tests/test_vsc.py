"""Witness-state search, greedy rules, closure, guidance, instance format."""

import itertools
import random
from pathlib import Path

import pytest

from rvfmc import Event, SolverOptions, VscInstance, closure, verify_sc
from rvfmc.vsc import (
    VscError,
    _Steps,
    _dive,
    _validate_witness,
    format_witness,
    parse_instance,
)
from reference_closure import respects
from reference_oracle import brute_force_vsc, iter_vsc_witnesses
from reference_vsc import format_instance, state_bound

ALL_OPTIONS = [SolverOptions(*bits) for bits in itertools.product([False, True], repeat=3)]


def inst_2ev():
    """w(x,1) in t1; r(x) in t2 must read it."""
    w = Event(1, 1, "W", "x", 1)
    r = Event(2, 1, "R", "x")
    return VscInstance((w, r), {r.eid: frozenset({w.eid})})


def inst_cyclic():
    """t1: w(x,1) r(y); t2: w(y,1) r(x); both reads must see initial values.

    Good-writes force each read before the other thread's write, which the
    program order turns into a cycle: unrealizable.
    """
    ev = (
        Event(1, 1, "W", "x", 1),
        Event(1, 2, "R", "y"),
        Event(2, 1, "W", "y", 1),
        Event(2, 2, "R", "x"),
    )
    gw = {(1, 2): frozenset({(0, 2)}), (2, 2): frozenset({(0, 1)})}
    return VscInstance(ev, gw)


def test_trivial_witness():
    inst = inst_2ev()
    for opt in ALL_OPTIONS:
        res = verify_sc(inst, opt)
        assert res.witness is not None
        assert [e.eid for e in res.witness] == [(1, 1), (2, 1)]


@pytest.mark.parametrize(
    "make",
    [
        lambda w1, r, w2: (w1, r),  # missing event
        lambda w1, r, w2: (w1, r, r),  # duplicated event
        lambda w1, r, w2: (w1, w2, r),  # two events of one thread swapped
        lambda w1, r, w2: (Event(1, 1, "W", "x", 5), r, w2),  # foreign event, right id
        lambda w1, r, w2: (r, w1, w2),  # the read sees the initial write
    ],
    ids=["missing", "duplicated", "swapped", "foreign", "non-good-write"],
)
def test_validate_witness_rejects(make):
    """t1: w(x,1); t2: r(x) w(x,2), where r(x) must read w(x,1)."""
    w1, r, w2 = Event(1, 1, "W", "x", 1), Event(2, 1, "R", "x"), Event(2, 2, "W", "x", 2)
    inst = VscInstance((w1, r, w2), {r.eid: frozenset({w1.eid})})
    _validate_witness(inst, (w1, r, w2))
    with pytest.raises(RuntimeError):
        _validate_witness(inst, make(w1, r, w2))


def test_cyclic_instance_unrealizable_all_options():
    inst = inst_cyclic()
    # independent confirmation: all 6 program-order linearizations fail
    assert brute_force_vsc(inst) is None
    assert sum(1 for _ in _all_linearizations(inst)) == 6
    for opt in ALL_OPTIONS:
        assert verify_sc(inst, opt).witness is None


def _all_linearizations(inst):
    chains = {t: list(inst.by_thread[t]) for t in inst.threads}

    def rec(prefix):
        if all(not c for c in chains.values()):
            yield tuple(prefix)
            return
        for t in inst.threads:
            if chains[t]:
                e = chains[t].pop(0)
                prefix.append(e)
                yield from rec(prefix)
                prefix.pop()
                chains[t].insert(0, e)

    yield from rec([])


def test_unanimous_style_instance_realizable():
    """All eight events of the motivating program, each read allowed every
    same-value write of its variable: realizable under every option set."""
    events = (
        Event(1, 1, "W", "x", 1),
        Event(1, 2, "W", "y", 1),
        Event(2, 1, "W", "x", 1),
        Event(2, 2, "W", "y", 1),
        Event(2, 3, "R", "x"),
        Event(3, 1, "W", "x", 1),
        Event(3, 2, "W", "y", 1),
        Event(3, 3, "R", "y"),
    )
    xs = frozenset(e.eid for e in events if e.kind == "W" and e.var == "x")
    ys = frozenset(e.eid for e in events if e.kind == "W" and e.var == "y")
    inst = VscInstance(events, {(2, 3): xs, (3, 3): ys})
    for opt in ALL_OPTIONS:
        assert verify_sc(inst, opt).witness is not None


def test_malformed_instances_rejected():
    w = Event(1, 1, "W", "x", 1)
    r = Event(2, 1, "R", "x")
    with pytest.raises(VscError):  # gap in thread positions
        VscInstance((Event(1, 2, "W", "x", 1),), {})
    with pytest.raises(VscError):  # read without entry
        VscInstance((w, r), {})
    with pytest.raises(VscError):  # empty good-writes set
        VscInstance((w, r), {r.eid: frozenset()})
    with pytest.raises(VscError):  # non-conflicting good write
        VscInstance(
            (w, r, Event(1, 2, "W", "y", 1)),
            {r.eid: frozenset({(1, 2)})},
        )


def test_instance_chains_checked_against_events():
    """Chains given to an instance are its ``by_thread``; with ``check`` on
    they must be the events grouped by thread, in thread-id and index
    order, and a wrong chain is rejected."""
    w1, r, w2 = Event(1, 1, "W", "x", 1), Event(1, 2, "R", "x"), Event(2, 1, "W", "x", 2)
    events, gw = (w1, r, w2), {r.eid: frozenset({w2.eid})}
    chains = {1: (w1, r), 2: (w2,)}
    inst = VscInstance(events, gw, chains=chains)
    assert inst.by_thread is chains and inst.threads == (1, 2)
    assert verify_sc(inst).witness == verify_sc(VscInstance(events, gw)).witness
    wrong = [
        {1: (w1,), 2: (w2,)},  # an event left out
        {1: (w1, r), 2: (w2, Event(2, 2, "W", "x", 3))},  # an event not in the instance
        {1: (r, w1), 2: (w2,)},  # out of index order
        {2: (w2,), 1: (w1, r)},  # out of thread-id order
        {1: (w1, r), 2: (w2,), 3: ()},  # a thread without events
        {1: [w1, r], 2: [w2]},  # lists, not tuples
    ]
    for bad in wrong:
        with pytest.raises(VscError, match="chains"):
            VscInstance(events, gw, chains=bad)
    # without the check the chains are taken as given
    assert VscInstance(events, gw, check=False, chains=wrong[0]).by_thread is wrong[0]


# -- search steps ---------------------------------------------------------------


def position(inst, e):
    """The thread position of ``e``, as the search steps take it."""
    return inst.threads.index(e.thread)


def state_after(inst, steps, seq):
    """The search state ``(counts, active)`` after running ``seq`` from the
    start, each event given to ``_Steps.advance`` as its thread position."""
    counts, active = steps.start
    for e in seq:
        u = position(inst, e)
        assert steps.chains[u][counts[u]][5] == e, f"{e!r} is not next in its thread"
        counts, active = steps.advance(u, counts, active)
    return counts, active


def executable(steps, u, counts, active):
    """True when the next event of thread ``u`` is executable in the state."""
    return u in steps.candidates(counts, active)


def code_of(inst, steps, w):
    """The write code of program write ``w``."""
    return steps.chains[position(inst, w)][w.index - 1][2]


def greedy_step(inst, steps, seq):
    """The event of the greedy choice among the executable frontier events
    after ``seq``, or None."""
    counts, active = state_after(inst, steps, seq)
    u = steps.greedy(steps.candidates(counts, active), counts, active)
    return None if u is None else steps.chains[u][counts[u]][5]


def test_active_write_progression():
    w11, w12, w21 = Event(1, 1, "W", "x", 1), Event(1, 2, "W", "x", 1), Event(2, 1, "W", "x", 1)
    inst = VscInstance(
        (w11, w12, w21, Event(2, 2, "R", "x")),
        {(2, 2): frozenset({(1, 1), (1, 2), (2, 1)})},
    )
    steps = _Steps(inst)
    codes = [code_of(inst, steps, w) for w in (w11, w12, w21)]
    assert 0 not in codes and len(set(codes)) == 3  # code 0 is the initial write
    assert state_after(inst, steps, ()) == ((0, 0), (0,))  # the initial write of x
    assert state_after(inst, steps, (w11, w21)) == ((1, 1), (code_of(inst, steps, w21),))
    # same thread writes twice
    assert state_after(inst, steps, (w11, w12)) == ((2, 0), (code_of(inst, steps, w12),))


def test_is_held():
    w1 = Event(1, 1, "W", "x", 1)
    w2 = Event(2, 1, "W", "x", 2)
    r = Event(3, 1, "R", "x")
    inst = VscInstance((w1, w2, r), {r.eid: frozenset({w1.eid, w2.eid})})
    steps = _Steps(inst)
    x = inst.variables.index("x")
    assert not steps.held(x, state_after(inst, steps, ())[0])
    assert not steps.held(x, state_after(inst, steps, (w1,))[0])  # w2 still missing
    assert steps.held(x, state_after(inst, steps, (w1, w2))[0])
    assert not steps.held(x, state_after(inst, steps, (w1, w2, r))[0])  # r finished


def test_executable_conditions():
    inst = inst_2ev()
    w, r = Event(1, 1, "W", "x", 1), Event(2, 1, "R", "x")
    steps = _Steps(inst)
    assert executable(steps, position(inst, w), *state_after(inst, steps, ()))
    # good write not active yet
    assert not executable(steps, position(inst, r), *state_after(inst, steps, ()))
    assert executable(steps, position(inst, r), *state_after(inst, steps, (w,)))
    # closure predecessors: r must read w2, so the bad write w1 goes before w2
    w1, r1, w2 = Event(1, 1, "W", "x", 1), Event(1, 2, "R", "x"), Event(2, 1, "W", "x", 2)
    inst = VscInstance((w1, r1, w2), {r1.eid: frozenset({w2.eid})})
    plain, ordered = _Steps(inst), _Steps(inst, closure(inst))
    u2 = position(inst, w2)
    assert executable(plain, u2, *state_after(inst, plain, ()))
    assert not executable(ordered, u2, *state_after(inst, ordered, ()))
    assert executable(ordered, u2, *state_after(inst, ordered, (w1,)))


def test_write_to_held_variable_not_executable():
    w1 = Event(1, 1, "W", "x", 1)
    w2 = Event(2, 1, "W", "x", 2)
    r = Event(3, 1, "R", "x")
    inst = VscInstance((w1, w2, r), {r.eid: frozenset({w1.eid})})
    steps = _Steps(inst)
    counts, active = state_after(inst, steps, (w1,))
    assert steps.held(inst.variables.index("x"), counts)
    assert not executable(steps, position(inst, w2), counts, active)
    assert executable(steps, position(inst, r), counts, active)
    assert steps.candidates(counts, active) == [position(inst, r)]


def test_greedy_prefers_executable_read():
    inst = inst_2ev()
    choice = greedy_step(inst, _Steps(inst), (Event(1, 1, "W", "x", 1),))
    assert choice is not None and choice.kind == "R"


def test_greedy_rule2_stale_writes():
    """Two useless writes queued behind a useless active write: rule 2 picks
    the replacement write; the verdict matches plain enumeration."""
    events = (
        Event(1, 1, "W", "x", 1),
        Event(1, 2, "W", "x", 2),
        Event(2, 1, "W", "y", 5),
        Event(2, 2, "R", "y"),
    )
    inst = VscInstance(events, {(2, 2): frozenset({(2, 1)})})
    steps = _Steps(inst)
    choice = greedy_step(inst, steps, events[:1])
    assert choice is not None and choice.eid == (1, 2)
    counts = state_after(inst, steps, events[:1])[0]
    assert steps.useless(code_of(inst, steps, events[0]), counts)
    assert not steps.useless(code_of(inst, steps, events[2]), counts)
    fast = verify_sc(inst, SolverOptions(greedy=True, closure=False, guided=False))
    slow = verify_sc(inst, SolverOptions.none())
    assert fast.realizable == slow.realizable == (brute_force_vsc(inst) is not None)


def test_greedy_neither_rule_applies():
    w1 = Event(1, 1, "W", "x", 1)
    r = Event(2, 1, "R", "x")
    inst = VscInstance((w1, r), {r.eid: frozenset({w1.eid})})
    # no executable read (w1 not active), no active write in the sequence
    assert greedy_step(inst, _Steps(inst), ()) is None


# -- closure -----------------------------------------------------------------


def test_closure_cyclic_instance_absent():
    assert closure(inst_cyclic()) is None


def test_closure_orders_singleton_good_write():
    inst = inst_2ev()
    cl = closure(inst)
    assert cl is not None
    assert cl.less((1, 1), (2, 1))


def test_closure_mutex_release_before_acquire():
    """Acquire encoded as a read with a singleton release good-write: the
    closure orders the release before the acquire across threads."""
    acq1 = Event(1, 1, "R", "m")
    rel1 = Event(1, 2, "W", "m", 0)
    acq2 = Event(2, 1, "R", "m")
    rel2 = Event(2, 2, "W", "m", 0)
    inst = VscInstance(
        (acq1, rel1, acq2, rel2),
        {acq1.eid: frozenset({(0, 1)}), acq2.eid: frozenset({rel1.eid})},
    )
    cl = closure(inst)
    assert cl is not None
    assert cl.less(rel1.eid, acq2.eid)
    w = verify_sc(inst).witness
    assert [e.eid for e in w] == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_every_witness_refines_closure():
    inst = inst_2ev()
    cl = closure(inst)
    for w in iter_vsc_witnesses(inst):
        assert respects(w, cl)


def test_long_witness_rebuilt():
    """One thread of 1999 writes and a reader of the last: every setting
    returns a validated witness of all 2000 events, the read last."""
    writes = tuple(Event(1, i, "W", "x", i) for i in range(1, 2000))
    r = Event(2, 1, "R", "x")
    inst = VscInstance(writes + (r,), {r.eid: frozenset({writes[-1].eid})})
    for opt in ALL_OPTIONS:
        res = verify_sc(inst, opt, aux=writes + (r,) if opt.guided else None)
        assert res.witness == writes + (r,)


def test_state_counter_bounded():
    inst = inst_cyclic()
    for opt in ALL_OPTIONS:
        res = verify_sc(inst, opt)
        assert res.states_processed <= state_bound(inst)


def test_dive_dead_end_falls_back_to_the_search():
    """Thread 3 must read a write of thread 1 or 2 after its own write.  The
    dive runs 1.1, 2.1 and 2.2 first; the read then holds x, so 3.1 cannot
    run, and the dive dead-ends under every option.  The search from the
    empty prefix backtracks once and pops 7 states, one more than the
    straight path's n + 1."""
    w11, w21, w22 = Event(1, 1, "W", "x", 2), Event(2, 1, "W", "x", 2), Event(2, 2, "W", "x", 2)
    w31, r32 = Event(3, 1, "W", "x", 0), Event(3, 2, "R", "x")
    inst = VscInstance((w11, w21, w22, w31, r32), {r32.eid: frozenset({w11.eid, w21.eid, w22.eid})})
    for opt in ALL_OPTIONS:
        aux = inst.events if opt.guided else None
        assert _dive(inst, closure(inst) if opt.closure else None, aux, opt.greedy) is None, opt
        res = verify_sc(inst, opt, aux=aux)
        assert (res.witness, res.states_processed) == ((w11, w21, w31, w22, r32), 7), opt


# -- guided order --------------------------------------------------------------


def test_guided_order_reverses_aux_positions():
    a, b, c = (Event(1, 1, "W", "x", 1), Event(2, 1, "W", "x", 1), Event(3, 1, "W", "x", 1))
    inst = VscInstance((a, b, c), {})
    guided = _Steps(inst, aux=[a, b, c])
    ua, ub, uc = (position(inst, e) for e in (a, b, c))
    counts = guided.start[0]
    assert guided.push_order([ua, uc], counts) == [uc, ua]
    assert guided.push_order([ub], counts) == [ub]
    assert guided.push_order([ua, ub, uc], counts) == [uc, ub, ua]
    # an aux trace out of event-id order, and no aux trace at all
    assert _Steps(inst, aux=[b, a, c]).push_order([ua, ub, uc], counts) == [uc, ua, ub]
    assert _Steps(inst).push_order([uc, ua, ub], counts) == [uc, ub, ua]


def test_guided_search_same_verdicts():
    inst = inst_cyclic()
    aux = sorted(inst.events, key=lambda e: e.eid)
    res = verify_sc(inst, SolverOptions(greedy=False, closure=False, guided=True), aux=aux)
    assert res.witness is None


# -- instance text format -------------------------------------------------------


INSTANCE_TEXT = """\
# a realizable two-thread instance
E 1 1 W x 1
E 1 2 R y
E 2 1 W y 1
E 2 2 R x
G 1 2 : 2.1
G 2 2 : 1.1
"""


def test_parse_format_roundtrip():
    inst = parse_instance(INSTANCE_TEXT)
    assert len(inst.events) == 4
    again = parse_instance(format_instance(inst))
    assert again.events == inst.events
    assert again.good_writes == inst.good_writes
    res = verify_sc(inst)
    assert res.witness is not None
    assert format_witness(res.witness).count(".") == 4


def test_parse_instance_errors():
    with pytest.raises(VscError):
        parse_instance("E 1 1 Q x\n")
    with pytest.raises(VscError):
        parse_instance("E 1 1 W x 1\nG 1 1 : zz\n")
    with pytest.raises(VscError):  # init id with wrong ordinal
        parse_instance("E 1 1 R x\nG 1 1 : 0.5\n")
    with pytest.raises(VscError, match="line 4"):  # a second record for read 2.1
        parse_instance("E 1 1 W x 1\nE 2 1 R x\nG 2 1 : 1.1\nG 2 1 : 0.1\n")
    with pytest.raises(VscError, match="line 2"):  # a value on a read
        parse_instance("E 1 1 W x 1\nE 2 1 R x 7\nG 2 1 : 1.1\n")
    with pytest.raises(VscError, match="line 1"):  # a sixth token on a write
        parse_instance("E 1 1 W x 1 7\nE 2 1 R x\nG 2 1 : 1.1\n")


def test_witness_output_deterministic():
    inst = parse_instance(INSTANCE_TEXT)
    w1 = format_witness(verify_sc(inst).witness)
    w2 = format_witness(verify_sc(inst).witness)
    assert w1 == w2


SHUFFLED_SOURCES = [
    INSTANCE_TEXT,
    (Path(__file__).resolve().parent.parent / "programs" / "store_buffer.inst").read_text(),
    # three threads of three events each, every read fed by another thread
    "E 1 1 W x 1\nE 1 2 R y\nE 1 3 W z 2\nE 2 1 W y 1\nE 2 2 R z\nE 2 3 W x 2\n"
    "E 3 1 R x\nE 3 2 W z 1\nE 3 3 R x\n"
    "G 1 2 : 2.1\nG 2 2 : 3.2 1.3\nG 3 1 : 1.1\nG 3 3 : 2.3\n",
]


@pytest.mark.parametrize("text", SHUFFLED_SOURCES)
def test_shuffled_instance_file_same_threads_and_verdicts(text):
    """An instance file may list its events in any order: ``by_thread``
    still gives each thread's events in index order, and every solver
    option gives the same verdict and state count as the sorted file."""
    lines = text.splitlines()
    events = [line for line in lines if line.startswith("E ")]
    rest = [line for line in lines if not line.startswith("E ")]
    rng = random.Random(7)
    for _ in range(5):
        rng.shuffle(events)
        shuffled = parse_instance("\n".join(events + rest) + "\n")
        inst = parse_instance(text)
        assert shuffled.by_thread == inst.by_thread
        assert all(
            [e.index for e in chain] == list(range(1, len(chain) + 1)) for chain in shuffled.by_thread.values()
        )
        for opt in ALL_OPTIONS:
            a, b = verify_sc(shuffled, opt), verify_sc(inst, opt)
            assert (a.witness is None, a.states_processed) == (b.witness is None, b.states_processed)
