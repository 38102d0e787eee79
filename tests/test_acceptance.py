"""Acceptance criteria, one test per criterion, each printing a PASS line.

Scale knobs: RVFMC_FUZZ_COUNT (default 10000) controls the fuzzed-instance
count used by criteria 3, 4 and 8.
"""

import itertools
import math
import os
import random
import time

import pytest

from rvfmc import ExploreOptions, count_classes, explore, parse_program
from rvfmc.vsc import SolverOptions, closure, verify_sc
from corpus import PROGRAMS, one_var_family, many_threads_family
from reference_closure import respects
from reference_oracle import brute_force_vsc, census, enumerate_maximal_traces, iter_vsc_witnesses, replay_leaves
from reference_vsc import in_order, state_bound
from test_fuzz import random_instance, random_linearization

FUZZ_COUNT = int(os.environ.get("RVFMC_FUZZ_COUNT", "10000"))

ABLATION_GRID = [
    ExploreOptions(backtrack_signals=True, closure=True, greedy=True, aux_trace=True),
    ExploreOptions(backtrack_signals=False, closure=True, greedy=True, aux_trace=True),
    ExploreOptions(backtrack_signals=True, closure=False, greedy=False, aux_trace=False),
    ExploreOptions(backtrack_signals=False, closure=False, greedy=False, aux_trace=False),
]

ALL_SOLVER_OPTIONS = [SolverOptions(*bits) for bits in itertools.product([False, True], repeat=3)]


def _ok(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def fuzz_corpus():
    rng = random.Random(20260808)
    out = []
    for _ in range(FUZZ_COUNT):
        inst = random_instance(rng)
        out.append((inst, random_linearization(inst, rng)))
    return out


def test_criterion_1_unanimous_census_reproduction():
    start = time.perf_counter()
    program = parse_program(PROGRAMS["unanimous"])
    traces = enumerate_maximal_traces(program)
    expected = math.factorial(8) // (math.factorial(2) * math.factorial(3) ** 2)
    assert len(traces) == expected == 560
    assert census(traces, "maz").count == 98
    assert census(traces, "rf").count == 9
    assert census(traces, "rvf").count == 1
    report = explore(program)
    assert report.leaf_count == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _ok("1", f"census 98/9/1, 1 leaf, {elapsed*1000:.0f}ms")


def test_criterion_2_coarse_program_families():
    start = time.perf_counter()
    for n in (2, 3, 4):
        pa = parse_program(one_var_family(n))
        assert explore(pa).leaf_count == 1
        counts = count_classes(pa, ("rf", "maz"))
        assert counts.classes["rf"] >= 2**n, (n, counts.classes)
        assert counts.classes["maz"] >= 2**n, (n, counts.classes)
    prev_rf, prev_maz = 0, 0
    for n in (2, 3, 4):
        pc = parse_program(many_threads_family(n))
        assert explore(pc).leaf_count == 1
        counts = count_classes(pc, ("rf", "maz"))
        assert counts.classes["rf"] > prev_rf
        assert counts.classes["maz"] > prev_maz
        prev_rf, prev_maz = counts.classes["rf"], counts.classes["maz"]
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _ok("2", f"leaf=1 everywhere, class growth as required, {elapsed:.1f}s")


def test_criterion_3_solver_matches_brute_force(fuzz_corpus):
    disagreements = 0
    for inst, lin in fuzz_corpus:
        expected = brute_force_vsc(inst) is not None
        guided = in_order(inst, lin)
        for opt in ALL_SOLVER_OPTIONS:
            res = verify_sc(guided, opt)
            if res.realizable != expected:
                disagreements += 1
            if res.witness is not None:
                active = {v: inst.init_eid(v) for v in inst.variables}
                for e in res.witness:
                    if e.kind == "W":
                        active[e.var] = e.eid
                    else:
                        assert active[e.var] in inst.good_writes[e.eid]
    assert disagreements == 0
    _ok("3", f"{len(fuzz_corpus)} instances x 8 option sets, 0 disagreements")


def test_criterion_4_closure_properties(fuzz_corpus):
    violations = 0
    for inst, _ in fuzz_corpus:
        cl = closure(inst)
        if cl is None:
            if brute_force_vsc(inst) is not None:
                violations += 1
            continue
        for w in iter_vsc_witnesses(inst):
            if not respects(w, cl):
                violations += 1
    assert violations == 0
    _ok("4", f"{len(fuzz_corpus)} instances, 0 closure violations")


def _behaviors(execs):
    out = set()
    for ex in execs:
        ev = tuple(sorted(e.eid for e in ex.events))
        out.add((ev, tuple(ex.values[eid] for eid in ev)))
    return out


def _observations(execs):
    out = set()
    for ex in execs:
        for e in ex.events:
            if e.kind == "R":
                out.add((e.eid, ex.values[e.eid]))
    return out


@pytest.fixture(scope="module")
def corpus_runs():
    """Oracle enumeration plus explorer reports for every ablation combo."""
    runs = {}
    for name, src in PROGRAMS.items():
        program = parse_program(src)
        oracle = enumerate_maximal_traces(program)
        reports = [explore(program, opt) for opt in ABLATION_GRID]
        runs[name] = (program, oracle, reports)
    return runs


def test_criterion_5_explorer_completeness(corpus_runs):
    assert len(corpus_runs) >= 30
    discrepancies = 0
    for name, (program, oracle, reports) in corpus_runs.items():
        want_beh = _behaviors(oracle)
        want_obs = _observations(oracle)
        want_viol = set()
        for ex in oracle:
            want_viol |= ex.violations
        for report in reports:
            leaves = replay_leaves(program, report)
            if _behaviors(leaves) != want_beh:
                discrepancies += 1
            if _observations(leaves) != want_obs:
                discrepancies += 1
            if set(report.assertion_violations) != want_viol:
                discrepancies += 1
    assert discrepancies == 0
    _ok("5", f"{len(corpus_runs)} programs x {len(ABLATION_GRID)} ablations, 0 discrepancies")


def test_criterion_6_leaf_uniqueness_and_bound(corpus_runs):
    for name, (program, oracle, reports) in corpus_runs.items():
        rvf_classes = census(oracle, "rvf").count
        for report in reports:
            keys = report.rvf_keys
            assert len(set(keys)) == len(keys), f"{name}: duplicate class among leaves"
            assert report.leaf_count <= rvf_classes, name
    _ok("6", "no duplicate leaf keys; leaf count within the class bound")


def test_criterion_7_ablation_invariance(corpus_runs):
    for name, (program, oracle, reports) in corpus_runs.items():
        counts = {r.leaf_count for r in reports}
        assert len(counts) == 1, f"{name}: {sorted(counts)}"
    _ok("7", "identical trace counts across the ablation grid")


def test_criterion_8_state_bound(fuzz_corpus):
    worst = 0.0
    for inst, lin in fuzz_corpus:
        bound = state_bound(inst)
        guided = in_order(inst, lin)
        for opt in ALL_SOLVER_OPTIONS:
            res = verify_sc(guided, opt)
            assert res.states_processed <= bound
            worst = max(worst, res.states_processed / bound)
    _ok("8", f"states within bound on every run (worst ratio {worst:.3f})")
