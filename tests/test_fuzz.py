"""Seeded randomized cross-checks: solver vs brute force, explorer vs oracle.

These run a few hundred cases for quick feedback; the acceptance module
repeats the same drivers at full scale.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvfmc import ExploreOptions, explore, parse_program, rvf_key
from rvfmc import vsc
from rvfmc.program import Event
from rvfmc.vsc import (
    Closure,
    SolverOptions,
    VscError,
    VscInstance,
    closure,
    extremes,
    verify_sc,
    visible,
)
from reference_closure import clock_pairs, reference_closure, respects
from reference_oracle import (
    brute_force_vsc,
    encode_rvf_key,
    enumerate_maximal_traces,
    iter_vsc_witnesses,
    reference_rvf_key,
    replay_leaves,
)
from reference_vsc import in_order, state_bound

ALL_SOLVER_OPTIONS = [SolverOptions(*bits) for bits in itertools.product([False, True], repeat=3)]


def random_instance(rng: random.Random) -> VscInstance:
    k = rng.randint(1, 3)
    d = rng.randint(1, 2)
    vars_ = ["x", "y"][:d]
    sizes = [0] * k
    for _ in range(rng.randint(2, 10)):
        sizes[rng.randrange(k)] += 1
    events = []
    for t in range(1, k + 1):
        for i in range(1, sizes[t - 1] + 1):
            kind = rng.choice("RW")
            var = rng.choice(vars_)
            value = rng.randint(0, 2) if kind == "W" else None
            events.append(Event(t, i, kind, var, value))
    used = sorted({e.var for e in events})
    gw = {}
    for e in events:
        if e.kind != "R":
            continue
        cands = [w.eid for w in events if w.kind == "W" and w.var == e.var]
        cands.append((0, used.index(e.var) + 1))
        gw[e.eid] = frozenset(rng.sample(cands, rng.randint(1, min(3, len(cands)))))
    return VscInstance(tuple(events), gw)


def random_linearization(inst: VscInstance, rng: random.Random) -> list[Event]:
    chains = {t: list(inst.by_thread[t]) for t in inst.threads}
    out = []
    while any(chains.values()):
        t = rng.choice([t for t in inst.threads if chains[t]])
        out.append(chains[t].pop(0))
    return out


def check_instance(inst: VscInstance, lin: list[Event]) -> None:
    oracle_witness = brute_force_vsc(inst)
    realizable = oracle_witness is not None
    guided = in_order(inst, lin)
    for opt in ALL_SOLVER_OPTIONS:
        res = verify_sc(guided, opt)
        assert res.realizable == realizable, (opt, inst.events, inst.good_writes)
        assert res.states_processed <= state_bound(inst)
        if res.witness is not None:
            # returned witnesses are validated internally; re-check reads here
            active = {v: inst.init_eid(v) for v in inst.variables}
            for e in res.witness:
                if e.kind == "W":
                    active[e.var] = e.eid
                else:
                    assert active[e.var] in inst.good_writes[e.eid]
    cl = closure(inst)
    if cl is None:
        assert not realizable, "closure absence must imply unrealizability"
    else:
        for w in iter_vsc_witnesses(inst):
            assert respects(w, cl)


def test_solver_agrees_with_brute_force_quick():
    rng = random.Random(7)
    for _ in range(400):
        inst = random_instance(rng)
        check_instance(inst, random_linearization(inst, rng))


def test_dive_is_the_search_first_path(monkeypatch):
    """Under every solver option the search marks no witness state until
    its first descent, the dive, dead-ends: it returns a witness after
    exactly n + 1 states when, and only when, it never built its memo."""
    rng = random.Random(11)
    corpus = [in_order(inst, random_linearization(inst, rng)) for inst in (random_instance(rng) for _ in range(600))]
    built = 0
    marked = vsc._marked

    def counting(*args):
        nonlocal built
        built += 1
        return marked(*args)

    monkeypatch.setattr(vsc, "_marked", counting)
    dives = dead_ends = 0
    for inst in corpus:
        for opt in ALL_SOLVER_OPTIONS:
            built = 0
            res = verify_sc(inst, opt)
            if opt.closure and res.closure is None:
                continue
            straight = res.realizable and res.states_processed == len(inst.events) + 1
            assert straight == (built == 0) and built <= 1, (opt, inst)
            dives += straight
            dead_ends += built
    assert dives > 0 and dead_ends > 0


# -- closure against the pairs-based reference ------------------------------------


def assert_same_closure(got, want, inst: VscInstance) -> None:
    """``got``, a closure, has the pairs of ``want``, a closure or a reference order."""
    assert (got is None) == (want is None), (inst.events, inst.good_writes)
    if got is not None:
        want_pairs = clock_pairs(want) if isinstance(want, vsc.Closure) else want.pairs
        assert clock_pairs(got) == want_pairs, (inst.events, inst.good_writes)


def assert_closure_matches_reference(inst: VscInstance) -> None:
    assert_same_closure(closure(inst), reference_closure(inst), inst)


def test_closure_matches_reference_on_fuzz_corpus():
    """The acceptance fuzz corpus: same seed and draws as its fixture."""
    rng = random.Random(20260808)
    for _ in range(10000):
        inst = random_instance(rng)
        random_linearization(inst, rng)
        assert_closure_matches_reference(inst)


def prefix_cuts(inst: VscInstance):
    """Every per-thread prefix cut of ``inst`` whose reads' good writes lie
    inside it, as the per-thread counts of events it keeps and the good
    writes of the reads it constrains.  The counts name every thread id up
    to the largest, as a program's threads do, so some orders cover threads
    without events in ``inst``."""
    threads = range(1, max(inst.threads) + 1)
    lengths = [len(inst.by_thread.get(t, ())) for t in threads]
    for cut in itertools.product(*(range(n + 1) for n in lengths)):
        counts = dict(zip(threads, cut))
        kept = {reid: gw for reid, gw in inst.good_writes.items() if reid[1] <= counts[reid[0]]}
        if all(w[0] == 0 or w[1] <= counts[w[0]] for gw in kept.values() for w in gw):
            yield counts, kept


def close_cut(inst: VscInstance, counts, kept):
    """The closure, from the empty order over the threads of ``counts``, of
    the cut of ``inst`` that keeps the first ``counts[t]`` events of each
    thread ``t`` and constrains the reads of ``kept``, or None.  The cut
    keeps the variables of ``inst``, so its initial-write ids are those of
    ``inst``, and it is unchecked, so ``kept`` may leave a read out."""
    events = tuple(e for e in inst.events if e.index <= counts[e.thread])
    return closure(VscInstance(events, kept, inst.variables, check=False), Closure(counts))


def test_closure_from_relaxation_matches_on_fuzz_corpus():
    """The acceptance fuzz corpus: a closure started from the closure of a
    relaxation equals the closure from program order.  Two kinds of
    relaxation: every prefix cut whose reads' good writes lie inside it,
    and the instance with one read left unconstrained, where the variant
    that gives the read the other candidate writes starts from the same
    closure, so a closure that changed its start would show.  A start may
    itself be started from a closure started from a closure, and the solver
    started from the empty order over every thread id finds the same
    witness in as many states.  A relaxation without a closure leaves its
    instance none."""
    rng = random.Random(20260808)
    for _ in range(10000):
        inst = random_instance(rng)
        random_linearization(inst, rng)
        want = closure(inst)
        want_pairs = want and clock_pairs(want)
        threads = range(1, max(inst.threads) + 1)
        full = {t: len(inst.by_thread.get(t, ())) for t in threads}
        cuts = list(prefix_cuts(inst))
        for counts, kept in cuts:
            start = close_cut(inst, counts, kept)
            got = start and closure(inst, start)
            assert (got and clock_pairs(got)) == want_pairs, (counts, inst.events, inst.good_writes)
        counts, kept = cuts[len(cuts) // 2]
        first = close_cut(inst, counts, kept)
        second = first and closure(VscInstance(inst.events, kept, inst.variables, check=False), first)
        assert_same_closure(second and closure(inst, second), want, inst)
        got, plain = verify_sc(inst, start=Closure(threads)), verify_sc(inst)
        assert (got.witness, got.states_processed) == (plain.witness, plain.states_processed), inst.events
        for r in inst.events:
            if r.kind != "R":
                continue
            cands = {w.eid for w in inst.events if w.kind == "W" and w.var == r.var}
            cands.add(inst.init_eid(r.var))
            other = frozenset(cands - inst.good_writes[r.eid]) or frozenset(cands)
            variant = VscInstance(inst.events, {**inst.good_writes, r.eid: other})
            rest = {reid: gw for reid, gw in inst.good_writes.items() if reid != r.eid}
            start = close_cut(inst, full, rest)
            assert_same_closure(start and closure(inst, start), want, inst)
            assert_same_closure(start and closure(variant, start), closure(variant), variant)


def node_refutes(node: Closure, inst: VscInstance, read: Event) -> bool:
    """The explorer's node check: no good write of ``read`` in ``inst``,
    the initial write included, lies in the ranges ``visible`` gives on
    ``node``, the closure of ``inst`` without ``read``."""
    ranges, init_visible = visible(node, read)
    gw = inst.good_writes[read.eid]
    return not extremes(ranges, gw.indices)[0] and not (init_visible and inst.init_eid(read.var) in gw)


def test_node_refutation_sound_on_fuzz_corpus():
    """The acceptance fuzz corpus: for every thread whose last event is a
    read r and whose relaxation without r has a closure, as an explorer
    node's does, the relaxation's visible ranges refute the instance only
    when the instance has no closure and no witness."""
    rng = random.Random(20260808)
    checks = refuted = 0
    for _ in range(10000):
        inst = random_instance(rng)
        random_linearization(inst, rng)
        full = {t: len(chain) for t, chain in inst.by_thread.items()}
        for t, chain in inst.by_thread.items():
            r = chain[-1]
            if r.kind != "R":
                continue
            rest = {reid: gw for reid, gw in inst.good_writes.items() if reid != r.eid}
            node = close_cut(inst, {**full, t: len(chain) - 1}, rest)
            if node is None:
                continue  # an explorer node's trace always closes
            checks += 1
            if node_refutes(node, inst, r):
                refuted += 1
                assert closure(inst) is None, (inst.events, inst.good_writes)
                assert brute_force_vsc(inst) is None, (inst.events, inst.good_writes)
    assert (checks, refuted) == (6067, 786)


def test_node_refutation_needs_one_new_read():
    """``visible`` gives ranges only for the next event of the read's
    thread after the order's rows: a read inside the order, one past a gap
    or one of a thread outside the order is an error."""
    inst = VscInstance(
        (Event(1, 1, "W", "x", 1), Event(1, 2, "R", "x"), Event(2, 1, "W", "x", 2)),
        {(1, 2): frozenset({(2, 1)})},
    )
    read = inst.events[1]
    for order in (close_cut(inst, {1: 2, 2: 0}, {}), close_cut(inst, {1: 0, 2: 1}, {}), Closure([2])):
        with pytest.raises(VscError):
            visible(order, read)
    node = close_cut(inst, {1: 1, 2: 1}, {})
    assert not node_refutes(node, inst, read)
    # the own write (1, 1) is below the read and visible, as is all of thread 2
    assert visible(node, read) == ({1: (1, 2), 2: (1, 2)}, False)
    # reading the initial write after the thread's own write of x fails rule 1
    stale = VscInstance(inst.events, {(1, 2): frozenset({(0, 1)})})
    assert node_refutes(node, stale, read)


@st.composite
def vsc_instances(draw) -> VscInstance:
    """Up to four threads of up to eight accesses to two variables; each read
    gets one to four good writes, possibly including the initial write."""
    events = []
    for t in range(1, draw(st.integers(1, 4)) + 1):
        for i in range(1, draw(st.integers(0, 8)) + 1):
            kind = draw(st.sampled_from("RW"))
            value = draw(st.integers(0, 2)) if kind == "W" else None
            events.append(Event(t, i, kind, draw(st.sampled_from("xy")), value))
    used = sorted({e.var for e in events})
    gw = {}
    for e in events:
        if e.kind == "R":
            cands = [w.eid for w in events if w.kind == "W" and w.var == e.var]
            cands.append((0, used.index(e.var) + 1))
            gw[e.eid] = frozenset(draw(st.lists(st.sampled_from(cands), min_size=1, max_size=4)))
    return VscInstance(tuple(events), gw)


@settings(max_examples=400, deadline=None)
@given(vsc_instances())
def test_closure_matches_reference_on_generated_instances(inst):
    assert_closure_matches_reference(inst)


# -- random programs: explorer vs oracle ------------------------------------------


def random_program(rng: random.Random) -> str:
    k = rng.randint(2, 3)
    vars_ = ["x", "y"][: rng.randint(1, 2)]
    lines = []
    for t in range(1, k + 1):
        body = []
        for i in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.45:
                body.append(f"write {rng.choice(vars_)} {rng.randint(1, 2)};")
            elif roll < 0.8:
                body.append(f"r{i} = read {rng.choice(vars_)};")
            else:
                v = rng.choice(vars_)
                body.append(
                    f"r{i} = read {v}; "
                    f"if r{i} == {rng.randint(0, 2)} {{ write {rng.choice(vars_)} {rng.randint(1, 3)}; }}"
                )
        lines.append(f"thread t{t} {{ {' '.join(body)} }}")
    return "\n".join(lines)


def behavior_set(execs):
    out = set()
    for ex in execs:
        ev = tuple(sorted(e.eid for e in ex.events))
        out.add((ev, tuple(ex.values[eid] for eid in ev)))
    return out


def test_explorer_complete_on_random_programs():
    rng = random.Random(4242)
    combos = [ExploreOptions(*bits) for bits in itertools.product([True, False], repeat=4)]
    for _ in range(120):
        src = random_program(rng)
        p = parse_program(src)
        oracle = enumerate_maximal_traces(p)
        assert all(rvf_key(ex) == encode_rvf_key(reference_rvf_key(ex)) for ex in oracle), src
        want = behavior_set(oracle)
        counts = set()
        for opt in combos:
            rep = explore(p, opt)
            assert behavior_set(replay_leaves(p, rep)) == want, src
            keys = rep.rvf_keys
            assert len(set(keys)) == len(keys), src
            counts.add(rep.leaf_count)
        assert len(counts) == 1, src


def random_mutex_program(rng: random.Random) -> str:
    k = rng.randint(2, 3)
    vars_ = ["x", "y"][: rng.randint(1, 2)]
    mux = ["m", "n"][: rng.randint(1, 2)]
    lines = []
    for t in range(1, k + 1):
        body = []
        for i in range(rng.randint(1, 2)):
            roll = rng.random()
            if roll < 0.5:
                m = rng.choice(mux)
                inner = ""
                if rng.random() < 0.8:
                    if rng.random() < 0.5:
                        inner = f"write {rng.choice(vars_)} {rng.randint(1, 2)};"
                    else:
                        inner = f"c{i} = read {rng.choice(vars_)};"
                if len(mux) == 2 and rng.random() < 0.3:
                    m2 = "n" if m == "m" else "m"
                    body.append(f"lock {m}; lock {m2}; {inner} unlock {m2}; unlock {m};")
                else:
                    body.append(f"lock {m}; {inner} unlock {m};")
            elif roll < 0.75:
                body.append(f"write {rng.choice(vars_)} {rng.randint(1, 2)};")
            else:
                body.append(f"r{i} = read {rng.choice(vars_)};")
        lines.append(f"thread t{t} {{ {' '.join(body)} }}")
    return "\n".join(lines)


def mutex_behavior_set(execs):
    out = set()
    for ex in execs:
        ev = tuple(sorted(e.eid for e in ex.events))
        out.add((ev, tuple(ex.values[eid] for eid in ev), ex.deadlocked))
    return out


def test_explorer_complete_on_random_mutex_programs():
    """Critical sections, nested locks, and deadlocks against the oracle."""
    rng = random.Random(777)
    combos = [
        ExploreOptions(),
        ExploreOptions(backtrack_signals=False),
        ExploreOptions(closure=False, greedy=False, aux_trace=False),
        ExploreOptions(False, False, False, False),
    ]
    for _ in range(80):
        src = random_mutex_program(rng)
        p = parse_program(src)
        oracle = enumerate_maximal_traces(p)
        assert all(rvf_key(ex) == encode_rvf_key(reference_rvf_key(ex)) for ex in oracle), src
        want = mutex_behavior_set(oracle)
        counts = set()
        for opt in combos:
            rep = explore(p, opt)
            assert mutex_behavior_set(replay_leaves(p, rep)) == want, src
            assert len(set(rep.rvf_keys)) == len(rep.rvf_keys), src
            counts.add(rep.leaf_count)
        assert len(counts) == 1, src
