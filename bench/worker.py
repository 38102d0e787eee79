"""One fresh process of a benchmark run.

Usage: ``python3 bench/worker.py '<job json>'``, where the job names the
``mode`` ("setup", "verdict" or "trace"), the ``workload``, the ``seed``, the
``seconds`` to spend on verdict passes, and for "trace" the ``spans_path``
to write the spans to.  The worker prints one JSON object on its last line.

Set-up is everything before the first check: import rvfmc from the
checkout's ``src``, generate the workload from its seed, and parse every
program.  A verdict pass returns every verdict of the workload once; each
verdict is compared with its pin, and a verdict that raises or differs
counts as failed.  Passes alternate with timings of a fixed reference
computation, which measure the speed the host gives the process.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
# About 0.1 s of work on a 2-vCPU VM with Python 3.11.
REFERENCE_ITERATIONS = 250_000


def load_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import rvfmc

    if Path(rvfmc.__file__).resolve().parent != (src / "rvfmc").resolve():
        raise ImportError(f"rvfmc was imported from {rvfmc.__file__}, not from {src}")
    return rvfmc


def verdict(rvfmc, case: workloads.Case, program) -> dict:
    if case.check == "explore":
        report = rvfmc.explore(program)
        return {
            "leaves": report.leaf_count,
            "rvf_classes": report.distinct_rvf_classes(),
            "violations": report.assertion_violations,
            "deadlocks": report.deadlocks,
        }
    counts = rvfmc.count_classes(program)
    return {
        "schedules": counts.maximal_traces,
        **counts.classes,
        "violations": counts.assertion_violations,
        "deadlocks": counts.deadlocks,
    }


def verdict_pass(rvfmc, cases, programs) -> tuple[float, list[str]]:
    """Seconds to return every verdict once, and the names of failed cases."""
    results = []
    start = perf_counter()
    for case, program in zip(cases, programs):
        try:
            results.append(verdict(rvfmc, case, program))
        except Exception:  # a check that raises is a failed check
            traceback.print_exc()
            results.append(None)
    elapsed = perf_counter() - start
    failed = []
    for case, got in zip(cases, results):
        if got != case.pin:
            print(f"{case.name}: got {got}, pinned {case.pin}", file=sys.stderr)
            failed.append(case.name)
    return elapsed, failed


def reference_seconds() -> float:
    """Seconds taken by a fixed piece of pure-Python work that uses no rvfmc
    code, with the collector off so that the size of the heap does not matter.

    Host load on a shared machine changes the speed of this process by tens
    of percent over minutes; timing this work next to each pass measures that
    speed, so pass times can be expressed in units of it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        table, seen, acc = {}, set(), 0
        for i in range(REFERENCE_ITERATIONS):
            key = (i % 977, i & 15)
            table[key] = table.get(key, 0) + 1
            if key not in seen:
                seen.add(key)
            acc += len(key) + (i ^ acc) % 7
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def repeat_passes(seconds: float, one_pass) -> tuple[list, list[float], float]:
    """Alternate reference timings and passes, starting and ending with a
    reference timing, until the next pass, timed like the last, would end
    after ``seconds``; at least one pass runs.

    Returns the pass results, the reference timings (one more than passes,
    so pass i lies between reference timings i and i + 1), and the process's
    peak RSS in MiB after the first pass: later passes can grow the heap, and
    their number depends on the speed.
    """
    start = perf_counter()
    refs = [reference_seconds()]
    results = [one_pass()]
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    refs.append(reference_seconds())
    while perf_counter() - start + results[-1][0] + refs[-1] <= seconds:
        results.append(one_pass())
        refs.append(reference_seconds())
    return results, refs, peak_rss_mib


def main(job: dict) -> dict:
    workload, seed = job["workload"], job["seed"]
    tracer = Tracer() if job["mode"] == "trace" else None

    start = perf_counter()
    rvfmc = load_package()
    cases = workloads.generate(workload, seed)
    if tracer is None:
        programs = [rvfmc.parse_program(c.text) for c in cases]
        out = {"setup_s": perf_counter() - start}
        if job["mode"] == "setup":
            return out
        passes, refs, peak_rss_mib = repeat_passes(job["seconds"], lambda: verdict_pass(rvfmc, cases, programs))
    else:
        with tracer.installed():
            programs = [rvfmc.parse_program(c.text) for c in cases]
            parse = tracer.take().summary()["spans"]["program.parse"]["total_s"]

            def traced_pass():
                elapsed, failed = verdict_pass(rvfmc, cases, programs)
                return elapsed, failed, tracer.take()

            passes, refs, peak_rss_mib = repeat_passes(job["seconds"], traced_pass)
        # Report one whole pass, the one of median duration, so that its
        # layer times add up to its wall time.
        mid = sorted(passes, key=lambda p: p[0])[(len(passes) - 1) // 2]
        mid[2].dump(job["spans_path"])
        out = {"parse_s": parse, "summary": mid[2].summary()}

    failed = [name for p in passes for name in p[1]]
    out.update(
        pass_s=[p[0] for p in passes],
        ref_s=refs,
        attempted=len(passes) * len(cases),
        failed=len(failed),
        failures=sorted(set(failed)),
        peak_rss_mib=peak_rss_mib,
    )
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
