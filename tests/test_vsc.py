"""Witness-state search, greedy rules, closure, guidance, instance format."""

import itertools
import random
from pathlib import Path

import pytest

from rvfmc import Event, SolverOptions, VscInstance, closure, verify_sc
from rvfmc.vsc import GoodWrites, VscError, _validate_witness, format_witness, parse_instance
from reference_closure import clock_less, respects
from reference_oracle import brute_force_vsc, iter_vsc_witnesses
from reference_vsc import format_instance, in_order, state_bound

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


# -- search choices -------------------------------------------------------------


def searched(inst, opt):
    """The witness and the states processed of ``verify_sc``."""
    res = verify_sc(inst, opt)
    return res.witness, res.states_processed


NO_GREEDY_GUIDED = SolverOptions(greedy=False, closure=False, guided=True)


def test_is_held():
    """r may read w1 or w2, so x is held only once both have run.  After
    w1 alone the plain search still runs w2, the first thread in position
    order, before r."""
    w1, w2, r = Event(1, 1, "W", "x", 1), Event(2, 1, "W", "x", 2), Event(3, 1, "R", "x")
    inst = VscInstance((w1, w2, r), {r.eid: frozenset({w1.eid, w2.eid})})
    assert searched(inst, SolverOptions(greedy=False, closure=False, guided=False)) == ((w1, w2, r), 4)


def test_executable_conditions():
    """A read is executable only once a good write is active, and with
    closure on an event only once its closure predecessors have run."""
    inst = inst_2ev()
    w, r = inst.events
    # the guide puts r first, but its good write is not active yet
    assert searched(in_order(inst, (r, w)), NO_GREEDY_GUIDED) == ((w, r), 3)
    # r1 must read w2, so the closure orders the bad write w1 before w2.
    # Without it the search follows the guide to w2, where r1 holds x and
    # w1 cannot run, and backtracks once.
    w1, r1, w2 = Event(1, 1, "W", "x", 1), Event(1, 2, "R", "x"), Event(2, 1, "W", "x", 2)
    inst = VscInstance((w1, r1, w2), {r1.eid: frozenset({w2.eid})})
    guided = in_order(inst, (w2, w1, r1))
    assert searched(guided, NO_GREEDY_GUIDED) == ((w1, w2, r1), 5)
    assert searched(guided, SolverOptions(greedy=False, closure=True, guided=True)) == ((w1, w2, r1), 4)


def test_write_to_held_variable_not_executable():
    """After w1, r holds x: w2 waits until r has run, so the plain search
    runs r before w2 and never backtracks (5 states if w2 could run)."""
    w1, w2, r = Event(1, 1, "W", "x", 1), Event(2, 1, "W", "x", 2), Event(3, 1, "R", "x")
    inst = VscInstance((w1, w2, r), {r.eid: frozenset({w1.eid})})
    for opt in ALL_OPTIONS:
        assert searched(inst, opt) == ((w1, r, w2), 4), opt


def test_greedy_prefers_executable_read():
    """After w1 both w2 and r can run.  Rule 1 takes the read; the plain
    search takes w2, the first thread in position order."""
    w1, w2, r = Event(1, 1, "W", "x", 1), Event(2, 1, "W", "x", 2), Event(3, 1, "R", "x")
    inst = VscInstance((w1, w2, r), {r.eid: frozenset({w1.eid, w2.eid})})
    assert searched(inst, SolverOptions(greedy=True, closure=False, guided=False)) == ((w1, r, w2), 4)
    assert searched(inst, SolverOptions(greedy=False, closure=False, guided=False)) == ((w1, w2, r), 4)


def test_greedy_rule2_stale_writes():
    """After 1.1 the useless active write of x may be replaced by the
    equally useless 1.2: rule 2 takes it although the guide puts 2.1
    first.  The verdict matches plain enumeration."""
    events = (
        Event(1, 1, "W", "x", 1),
        Event(1, 2, "W", "x", 2),
        Event(2, 1, "W", "y", 5),
        Event(2, 2, "R", "y"),
    )
    inst = VscInstance(events, {(2, 2): frozenset({(2, 1)})})
    guide = (events[0], events[2], events[3], events[1])
    greedy = SolverOptions(greedy=True, closure=False, guided=True)
    assert searched(in_order(inst, guide), greedy) == (events, 5)
    assert searched(in_order(inst, guide), NO_GREEDY_GUIDED) == (guide, 5)
    fast = verify_sc(inst, SolverOptions(greedy=True, closure=False, guided=False))
    slow = verify_sc(inst, SolverOptions(greedy=False, closure=False, guided=False))
    assert fast.realizable == slow.realizable == (brute_force_vsc(inst) is not None)


def test_greedy_neither_rule_applies():
    """Three writes of x and no read.  At the start no read is executable
    and the active write is the initial one, so greedy leaves the choice to
    the guide, which runs c first; c is then a useless active write, and
    rule 2 replaces it with a, the first useless write in position order."""
    a, b, c = (Event(1, 1, "W", "x", 1), Event(2, 1, "W", "x", 1), Event(3, 1, "W", "x", 1))
    inst = in_order(VscInstance((a, b, c), {}), (c, b, a))
    assert searched(inst, SolverOptions(greedy=True, closure=False, guided=True)) == ((c, a, b), 4)


# -- closure -----------------------------------------------------------------


def test_closure_cyclic_instance_absent():
    assert closure(inst_cyclic()) is None


def test_closure_orders_singleton_good_write():
    inst = inst_2ev()
    cl = closure(inst)
    assert cl is not None
    assert clock_less(cl, (1, 1), (2, 1))


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
    assert clock_less(cl, rel1.eid, acq2.eid)
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
        res = verify_sc(inst, opt)
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
        res = verify_sc(inst, opt)
        assert (res.witness, res.states_processed) == ((w11, w21, w31, w22, r32), 7), opt


def test_closure_clocks_after_backtracking():
    """With closure on and greedy off the search backtracks here, 13 states
    for 8 events.  Undoing an event takes its count back from the clocks
    that later candidates are checked against; a count left behind would
    let an event run before its closure predecessors (14 states)."""
    w11, w12, w21 = Event(1, 1, "W", "x", 2), Event(1, 2, "W", "x", 2), Event(2, 1, "W", "x", 2)
    r31, r32, r33, r34 = (Event(3, i, "R", "x") for i in range(1, 5))
    w35 = Event(3, 5, "W", "x", 0)
    inst = VscInstance(
        (w11, w12, w21, r31, r32, r33, r34, w35),
        {
            r31.eid: frozenset({(0, 1), w12.eid, w21.eid}),
            r32.eid: frozenset({w11.eid, w35.eid}),
            r33.eid: frozenset({w11.eid, w35.eid}),
            r34.eid: frozenset({(0, 1), w12.eid}),
        },
    )
    opt = SolverOptions(greedy=False, closure=True, guided=False)
    assert searched(inst, opt) == ((w21, r31, w11, r32, r33, w12, r34, w35), 13)


# -- guided order --------------------------------------------------------------


def test_guided_order_reverses_aux_positions():
    """Without greedy, the guided search runs the executable events in the
    order of the instance's events, its auxiliary trace, and the plain one
    in thread position order."""
    a, b, c = (Event(1, 1, "W", "x", 1), Event(2, 1, "W", "x", 1), Event(3, 1, "W", "x", 1))
    inst = VscInstance((a, b, c), {})
    for guide in ([a, b, c], [b, a, c], [c, b, a]):
        assert searched(in_order(inst, guide), NO_GREEDY_GUIDED) == (tuple(guide), 4)
    plain = SolverOptions(greedy=False, closure=False, guided=False)
    assert searched(in_order(inst, [c, b, a]), plain) == ((a, b, c), 4)


def test_guided_search_same_verdicts():
    inst = in_order(inst_cyclic(), sorted(inst_cyclic().events, key=lambda e: e.eid))
    res = verify_sc(inst, SolverOptions(greedy=False, closure=False, guided=True))
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


def test_parsed_good_writes_keep_sorted_indices():
    """A checked instance holds its good-writes sets as ``GoodWrites``,
    each with the sorted indices of its members per writing thread, so
    neither the closure nor the search converts them again; a set that is
    one already is kept as it is."""
    inst = parse_instance("E 1 1 W x 1\nE 1 2 W x 2\nE 1 3 W x 3\nE 2 1 W x 4\nE 3 1 R x\nG 3 1 : 1.3 0.1 2.1 1.1\n")
    (gw,) = inst.good_writes.values()
    assert isinstance(gw, GoodWrites)
    assert gw == {(1, 3), (0, 1), (2, 1), (1, 1)}
    assert gw.indices == {1: [1, 3], 2: [1]}
    assert VscInstance(inst.events, inst.good_writes).good_writes[(3, 1)] is gw


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
