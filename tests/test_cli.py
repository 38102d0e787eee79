"""CLI surface: JSON shape, exit codes, determinism, trace emission."""

import json
from pathlib import Path

import pytest

from rvfmc import explore, parse_program
from rvfmc.cli import main
from rvfmc.vsc import parse_instance
from corpus import LONG_READS, MISUSE, NESTED_REPEATS, PROGRAMS, deep_program


@pytest.fixture
def demo_file(tmp_path):
    f = tmp_path / "unanimous.prog"
    f.write_text(PROGRAMS["unanimous"])
    return str(f)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_explore_unanimous(capsys, demo_file):
    code, rec = run_cli(capsys, "explore", demo_file)
    assert code == 0
    assert rec["mode"] == "explore"
    assert rec["maximal_traces"] == 1
    assert rec["leaves"] == 1
    assert rec["rvf_classes"] == 1
    assert rec["assertion_violations"] == []
    assert rec["deadlocks"] == 0
    assert rec["options"]["backtrack_signals"] is True


def test_explore_ablations_identical(capsys, demo_file):
    _, base = run_cli(capsys, "explore", demo_file)
    _, ablated = run_cli(
        capsys, "explore", demo_file, "--no-backtrack-signals", "--no-closure", "--no-aux-trace"
    )
    assert ablated["maximal_traces"] == base["maximal_traces"] == 1


def test_census_unanimous(capsys, demo_file):
    code, rec = run_cli(capsys, "census", demo_file)
    assert code == 0
    assert rec["maximal_traces"] == 560
    assert rec["maz_classes"] == 98
    assert rec["rf_classes"] == 9
    assert rec["rvf_classes"] == 1


def test_explore_reports_node_refutations(tmp_path, capsys):
    """On a lock counter every group that needs a witness fails the closure
    at its node, so no solver call is made; without closure none is refuted
    there and the solver takes them all."""
    f = tmp_path / "lock_counter.prog"
    body = "lock m; a = read x; write x a + 1; unlock m;"
    f.write_text("\n".join(f"thread t{i} {{ {body} }}" for i in range(1, 4)))
    _, rec = run_cli(capsys, "explore", str(f))
    assert rec["leaves"] == 6
    assert rec["node_refutations"] > 0 and rec["vsc_calls"] == 0
    _, plain = run_cli(capsys, "explore", str(f), "--no-closure")
    assert plain["node_refutations"] == 0
    assert plain["vsc_calls"] == rec["node_refutations"]
    _, census = run_cli(capsys, "census", str(f))
    assert census["node_refutations"] is None and census["vsc_calls"] is None


def test_explore_long_reads(tmp_path, capsys):
    """A program 3000 explorer nodes deep has one leaf and makes no solver
    call, refutation or witness state, with closure on and off."""
    f = tmp_path / "long_reads.prog"
    f.write_text(LONG_READS)
    for flags in ([], ["--no-closure"]):
        code, rec = run_cli(capsys, "explore", str(f), *flags)
        assert code == 0
        assert (rec["leaves"], rec["vsc_calls"], rec["node_refutations"], rec["witness_states"]) == (1, 0, 0, 0)


def test_output_deterministic_modulo_time(capsys, demo_file):
    _, a = run_cli(capsys, "explore", demo_file)
    _, b = run_cli(capsys, "explore", demo_file)
    a.pop("wall_time_ms")
    b.pop("wall_time_ms")
    assert a == b


def test_parse_error_exit_2(tmp_path, capsys):
    f = tmp_path / "bad.prog"
    f.write_text("thread t1 { write x ; }")
    assert main(["explore", str(f)]) == 2
    assert main(["census", str(f)]) == 2


def test_unroll_limit_exit_2(tmp_path, capsys):
    """A program whose nested repeats unroll past the limit is a parse
    error, not an out-of-memory failure."""
    f = tmp_path / "nested.prog"
    f.write_text(NESTED_REPEATS)
    for mode in ("explore", "census"):
        assert main([mode, str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "rvf-mc: 1:12: a thread unrolls to more than 100000 instructions\n"


def test_unheld_unlock_exit_2(tmp_path, capsys):
    f = tmp_path / "unlock.prog"
    f.write_text("thread t { unlock m; }")
    for mode in ("explore", "census"):
        assert main([mode, str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "rvf-mc: thread t releases mutex 'm' it does not hold\n"


@pytest.mark.parametrize("name", sorted(MISUSE))
def test_misuse_programs_exit_2(name, tmp_path, capsys):
    f = tmp_path / f"{name}.prog"
    f.write_text(MISUSE[name])
    for mode in ("explore", "census"):
        assert main([mode, str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "does not hold" in captured.err


@pytest.mark.parametrize("budget", ["-1", "ten"])
def test_census_rejects_a_bad_budget(capsys, demo_file, budget):
    """A budget that is negative or not an integer is a usage error, not an
    exhausted budget."""
    with pytest.raises(SystemExit) as exc:
        main(["census", demo_file, "--budget", budget])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ") and "argument --budget" in captured.err
    assert "exhausted" not in captured.err


def test_missing_file_exit_2(capsys):
    assert main(["explore", "/nonexistent.prog"]) == 2


def test_fail_on_violation(tmp_path, capsys):
    f = tmp_path / "race.prog"
    f.write_text(PROGRAMS["assert_race"])
    assert main(["explore", str(f)]) == 0
    capsys.readouterr()
    assert main(["explore", str(f), "--fail-on-violation"]) == 1
    rec = json.loads(capsys.readouterr().out)
    assert rec["assertion_violations"] == ["t2#1"]


def test_emit_traces(tmp_path, capsys, demo_file):
    """One line per leaf: its schedule as thread.index ids."""
    out = tmp_path / "traces.txt"
    code, rec = run_cli(capsys, "explore", demo_file, "--emit-traces", str(out))
    lines = out.read_text().splitlines()
    assert len(lines) == rec["maximal_traces"] == 1
    assert len(lines[0].split()) == 8  # all eight events, id per token
    schedules = explore(parse_program(PROGRAMS["unanimous"])).schedules
    assert out.read_text() == "".join(" ".join(f"{e.thread}.{e.index}" for e in s) + "\n" for s in schedules)


def test_vsc_mode(tmp_path, capsys):
    f = tmp_path / "inst.txt"
    f.write_text("E 1 1 W x 1\nE 2 1 R x\nG 2 1 : 1.1\n")
    code, rec = run_cli(capsys, "vsc", str(f))
    assert code == 0
    assert rec["realizable"] is True
    assert rec["witness"] == "1.1 2.1"


def test_vsc_empty_instance_has_empty_witness(tmp_path, capsys):
    f = tmp_path / "empty.inst"
    f.write_text("")
    code, rec = run_cli(capsys, "vsc", str(f))
    assert code == 0
    assert rec["realizable"] is True
    assert rec["witness"] == ""


def test_vsc_mode_unrealizable(tmp_path, capsys):
    f = tmp_path / "inst.txt"
    f.write_text(
        "E 1 1 W x 1\nE 1 2 R y\nE 2 1 W y 1\nE 2 2 R x\n"
        "G 1 2 : 0.2\nG 2 2 : 0.1\n"
    )
    code, rec = run_cli(capsys, "vsc", str(f))
    assert code == 0
    assert rec["realizable"] is False
    assert rec["witness"] is None


def test_vsc_aux_trace_is_file_order(tmp_path, capsys):
    """The E records, in file order, guide the search; --no-aux-trace
    searches in event-id order."""
    f = tmp_path / "inst.txt"
    f.write_text("E 2 1 W y 1\nE 1 1 W x 1\n")
    _, guided = run_cli(capsys, "vsc", str(f))
    assert guided["witness"] == "2.1 1.1"
    assert guided["options"]["aux_trace"] is True
    _, plain = run_cli(capsys, "vsc", str(f), "--no-aux-trace")
    assert plain["witness"] == "1.1 2.1"
    assert plain["options"]["aux_trace"] is False


def test_bundled_instance_unrealizable(capsys):
    path = PROGRAMS_DIR / "store_buffer.inst"
    inst = parse_instance(path.read_text())
    assert len(inst.events) == 4 and len(inst.good_writes) == 2
    code, rec = run_cli(capsys, "vsc", str(path))
    assert code == 0
    assert rec["realizable"] is False and rec["witness"] is None


@pytest.mark.parametrize(
    "flags",
    [(), ("--no-closure",), ("--no-closure", "--no-greedy", "--no-aux-trace")],
    ids=["default", "no-closure", "none"],
)
def test_bundled_dead_end_instance_backtracks(capsys, flags):
    """The search's first descent into ``dead_end.inst`` dead-ends, and it
    backtracks once to its witness: 7 states for 5 events."""
    code, rec = run_cli(capsys, "vsc", str(PROGRAMS_DIR / "dead_end.inst"), *flags)
    assert code == 0
    assert (rec["realizable"], rec["witness"], rec["witness_states"]) == (True, "1.1 2.1 3.1 2.2 3.2", 7)


def test_bundled_instance_unrealizable_without_closure(capsys):
    """Without closure the search itself refutes ``store_buffer.inst``: each
    read holds its variable from the start, so neither write can run."""
    code, rec = run_cli(capsys, "vsc", str(PROGRAMS_DIR / "store_buffer.inst"), "--no-closure")
    assert code == 0
    assert (rec["realizable"], rec["witness"], rec["witness_states"]) == (False, None, 1)


def test_vsc_parse_error(tmp_path, capsys):
    f = tmp_path / "inst.txt"
    # a bad event kind; a second good-writes record for read 2.1
    for text in ("E 1 1 Q x\n", "E 1 1 W x 1\nE 2 1 R x\nG 2 1 : 1.1\nG 2 1 : 0.1\n"):
        f.write_text(text)
        assert main(["vsc", str(f)]) == 2


@pytest.mark.parametrize("mode", ["explore", "census", "vsc"])
def test_non_utf8_input_exit_2(tmp_path, capsys, mode):
    f = tmp_path / "bin.prog"
    f.write_bytes(b"\xff\xfe")
    assert main([mode, str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("rvf-mc: ") and "utf-8" in captured.err


def test_emit_traces_unwritable_exit_2(tmp_path, capsys, demo_file):
    out = tmp_path / "missing" / "traces.txt"
    assert main(["explore", demo_file, "--emit-traces", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("rvf-mc: ") and str(out) in captured.err


@pytest.mark.parametrize("shape, n", [("parens", 3000), ("ifs", 1200), ("sum", 4999)])
def test_deep_nesting_exit_2(tmp_path, capsys, shape, n):
    f = tmp_path / "deep.prog"
    src, _ = deep_program(shape, n)
    f.write_text(src)
    assert main(["explore", str(f)]) == 2
    _, col = deep_program(shape, 101)
    assert capsys.readouterr().err == f"rvf-mc: 1:{col}: nested deeper than 100 levels\n"


PROGRAMS_DIR = Path(__file__).resolve().parent.parent / "programs"


@pytest.mark.parametrize("path", sorted(PROGRAMS_DIR.glob("*.prog")), ids=lambda p: p.name)
def test_bundled_program_explore_matches_census(capsys, path):
    code, explored = run_cli(capsys, "explore", str(path))
    assert code == 0
    code, counted = run_cli(capsys, "census", str(path))
    assert code == 0
    assert explored["leaves"] == explored["rvf_classes"] == counted["rvf_classes"]
    assert explored["assertion_violations"] == counted["assertion_violations"]
    assert explored["deadlocks"] == counted["deadlocks"]


@pytest.mark.parametrize(
    "flags, counts",
    [((), (4, 4, 32)), (("--no-closure",), (8, 0, 45))],
    ids=["default", "no-closure"],
)
def test_bundled_mutex_demo_pinned(capsys, flags, counts):
    """``mutex_demo.prog``'s JSON: with closure on, the node check refutes
    four groups that the solver takes without it."""
    path = str(PROGRAMS_DIR / "mutex_demo.prog")
    code, rec = run_cli(capsys, "explore", path, *flags)
    assert code == 0
    rec.pop("wall_time_ms")
    assert rec == {
        "mode": "explore",
        "program": path,
        "maximal_traces": 6,
        "rvf_classes": 6,
        "rf_classes": None,
        "maz_classes": None,
        "leaves": 6,
        "vsc_calls": counts[0],
        "node_refutations": counts[1],
        "witness_states": counts[2],
        "assertion_violations": [],
        "deadlocks": 0,
        "options": {"backtrack_signals": True, "closure": not flags, "greedy": True, "aux_trace": True},
    }
