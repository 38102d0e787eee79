"""Tests of the benchmark itself.

Run from the root of a checkout with ``python3 -m pytest bench`` or
``python3 -m unittest discover -s bench``.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import tracer
import workloads
import worker

ROOT = Path(__file__).resolve().parent.parent
rvfmc = worker.load_package()
SEEDS = (1, 2)


def parse(text):
    return rvfmc.parse_program(text)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_cases(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(workloads.generate(name, 7), workloads.generate(name, 7))

    def test_seed_changes_the_text_only(self):
        for name in workloads.WORKLOADS:
            a, b = workloads.generate(name, 7), workloads.generate(name, 8)
            self.assertNotEqual([c.text for c in a], [c.text for c in b])
            self.assertEqual([(c.name, c.pin) for c in a], [(c.name, c.pin) for c in b])


class PinTest(unittest.TestCase):
    def census(self, text, equivalences=("rvf",)):
        return rvfmc.count_classes(parse(text), equivalences)

    def test_smallexplore_pins_match_census(self):
        for seed in SEEDS:
            rng = random.Random(seed)
            cases = [
                (workloads.sb_ring(3, rng), workloads.SB_RING_LEAVES[3]),
                (workloads.sb_ring(4, rng), workloads.SB_RING_LEAVES[4]),
                (workloads.lock_counter(3, rng), math.factorial(3)),
                (workloads.lock_counter(4, rng), math.factorial(4)),
                (workloads.long_n(3, rng), 4),
                (workloads.long_n(5, rng), 6),
                (workloads.long_writer(40, rng), 2),
            ]
            for text, pin in cases:
                with self.subTest(seed=seed, text=text):
                    report = rvfmc.explore(parse(text))
                    self.assertEqual(report.leaf_count, pin)
                    self.assertEqual(report.distinct_rvf_classes(), pin)
                    self.assertEqual(self.census(text).classes["rvf"], pin)

    def test_small_census_schedules_are_multinomials(self):
        for seed in SEEDS:
            rng = random.Random(seed)
            cases = [
                (workloads.one_var(2, rng), workloads.schedules(2, 4, 2)),
                (workloads.many_vars(2, rng), workloads.schedules(2, 4, 2)),
                (workloads.many_threads(3, rng), workloads.schedules(2, 2, 2)),
            ]
            for text, pin in cases:
                with self.subTest(seed=seed, text=text):
                    self.assertEqual(self.census(text).maximal_traces, pin)

    def test_workload_pins_hold_on_two_seeds(self):
        # lock-counter and long-trace take several seconds a pass; their pins
        # are closed forms checked at small sizes above.
        for name in ("sb-ring", "census"):
            for seed in SEEDS:
                cases = workloads.generate(name, seed)
                programs = [parse(c.text) for c in cases]
                _, failed = worker.verdict_pass(rvfmc, cases, programs)
                self.assertEqual(failed, [], (name, seed))


class TracerTest(unittest.TestCase):
    def traced_pass(self):
        rng = random.Random(3)
        cases = [
            workloads.Case("ring", "explore", workloads.sb_ring(4, rng), workloads.explore_pin(73)),
            workloads.Case("lock", "explore", workloads.lock_counter(3, rng), workloads.explore_pin(6)),
            workloads.Case(
                "threads",
                "census",
                workloads.many_threads(3, rng),
                workloads.census_pin(90, {"rvf": 1, "rf": 16, "maz": 36}),
            ),
        ]
        t = tracer.Tracer()
        with t.installed():
            programs = [rvfmc.parse_program(c.text) for c in cases]
            t.take()
            elapsed, failed = worker.verdict_pass(rvfmc, cases, programs)
            return elapsed, failed, t.take()

    def test_self_times_sum_to_wall(self):
        elapsed, failed, rec = self.traced_pass()
        self.assertEqual(failed, [])
        summary = rec.summary()
        total_self = sum(s["self_s"] for s in summary["spans"].values())
        self.assertGreater(summary["wall_s"], 0.0)
        self.assertLessEqual(summary["wall_s"], elapsed)
        self.assertAlmostEqual(total_self, summary["wall_s"], delta=1e-9 * len(rec.names))

        m = tracer.layer_metrics(summary, 0.001)
        self.assertEqual(m["explore.leaves"], 73 + 6)
        self.assertEqual(m["oracle.schedules"], 90)
        self.assertEqual(m["vsc.closure.calls"], m["vsc.verify_sc.calls"])
        self.assertEqual(m["explore.direct_witness"] + m["vsc.verify_sc.realizable"] + 2, m["explore.nodes"])
        self.assertEqual(m["program.replay.calls"], m["vsc.verify_sc.realizable"])
        self.assertEqual(m["semantics.rvf_key.calls"], m["explore.leaves"])

    def test_spans_dump_one_line_per_span(self):
        _, _, rec = self.traced_pass()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spans.jsonl"
            rec.dump(path)
            rows = [json.loads(line) for line in path.read_text().splitlines()]
        self.assertEqual(len(rows), len(rec.names))
        for i, (name, start, end, parent) in enumerate(rows):
            self.assertIn(name, tracer.SPAN_NAMES)
            self.assertLessEqual(start, end)
            self.assertTrue(parent < i)

    def test_patched_names_are_restored(self):
        originals = [(sys.modules[m], a, getattr(sys.modules[m], a)) for m, a, _, _ in tracer.PATCHES]
        t = tracer.Tracer()
        with self.assertRaises(KeyError):
            with t.installed():
                for module, attr, original in originals:
                    self.assertIs(getattr(module, attr).__wrapped__, original)
                raise KeyError("leave the block by an exception")
        for module, attr, original in originals:
            self.assertIs(getattr(module, attr), original)
        self.assertIs(sys.modules["rvfmc.explore"].verify_sc, sys.modules["rvfmc.vsc"].verify_sc)


class CommandTest(unittest.TestCase):
    """The command in a copy of the checkout."""

    def copy_checkout(self, tmp: Path, with_sources: bool) -> Path:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "bench", tmp / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        if with_sources:
            shutil.copytree(ROOT / "src", tmp / "src", ignore=shutil.ignore_patterns("__pycache__"))
        return tmp

    def run_bench(self, root: Path):
        return subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "sb-ring", "--seed", "1", "--seconds", "0.1"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=180,
        )

    def test_wrong_pin_fails_the_run(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = self.copy_checkout(Path(tmp), with_sources=True)
            source = root / "bench" / "workloads.py"
            text = source.read_text()
            self.assertEqual(text.count("5: 231"), 1)
            source.write_text(text.replace("5: 231", "5: 232"))
            proc = self.run_bench(root)
        self.assertNotEqual(proc.returncode, 0)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLessEqual(result["failed"], result["attempted"])

    def test_without_sources_no_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            proc = self.run_bench(self.copy_checkout(Path(tmp), with_sources=False))
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
