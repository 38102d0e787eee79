"""Time-to-verdict benchmark for rvfmc.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sb-ring --seed 1 --seconds 20 --trace 0

Workloads, metrics and units are declared in ``BENCHMARK.json``.  All load
comes from one single-threaded process at a time; every process is fresh,
imports rvfmc from the checkout's ``src`` and ends before the next starts.

``--trace 0`` reports the end-to-end metrics.  Several processes only set up,
and the median of their set-up times is ``setup_s``.  One process sets up and
then, for ``--seconds``, alternates a fixed reference computation with verdict
passes.  ``verdict_ref`` is the median over passes of the pass time divided by
the reference timings around it; the wall time of the passes is printed.  The
process's ``ru_maxrss`` after its first pass is ``peak_rss_mib``.

Time to verdict is reported in reference units because, on a shared virtual
machine, host load changes the speed of a process by tens of percent from one
minute to the next: over ten runs of a workload the spread of the median wall
time reached 29% of it, more than any bound the benchmark may set.  The
reference timing moves with that speed, so the ratio stays steady.

``--trace 1`` reports the per-layer metrics.  One process repeats untraced
passes and another repeats traced passes, for half of ``--seconds`` each, so
no patch reaches a timed pass.  The layers are those of the traced pass of
median duration; its spans go to ``.bench_out/``.  ``verdict.wall_s`` is the
median wall time of the untraced passes.

Every verdict is checked against its pin.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 if any check failed and 2 if the run could not
be made, in which case no result is printed.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROCESSES = 8
# A run must end within 180 s; a worker still running at this deadline is
# killed and the run fails.
TIME_LIMIT_S = 170


class RunError(RuntimeError):
    pass


def spawn(job: dict, deadline: float) -> dict:
    """Run one worker process to completion and return its result."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(job)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise RunError(f"{job['mode']} worker passed the time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise RunError(f"{job['mode']} worker exited with code {proc.returncode}")
    return json.loads(out.splitlines()[-1])


def in_reference_units(run: dict) -> list[float]:
    """Each pass time over the mean of the two reference timings around it."""
    refs = run["ref_s"]
    return [t / ((refs[i] + refs[i + 1]) / 2) for i, t in enumerate(run["pass_s"])]


def end_to_end(job: dict, deadline: float) -> tuple[dict, dict]:
    setups = [spawn({**job, "mode": "setup"}, deadline)["setup_s"] for _ in range(SETUP_PROCESSES)]
    run = spawn({**job, "mode": "verdict"}, deadline)
    setups.append(run["setup_s"])
    metrics = {
        "verdict_ref": statistics.median(in_reference_units(run)),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": run["peak_rss_mib"],
    }
    print(
        f"verdict: median of {len(run['pass_s'])} passes {statistics.median(run['pass_s']):.4f} s wall "
        f"(min {min(run['pass_s']):.4f}, max {max(run['pass_s']):.4f}), "
        f"reference timing median {statistics.median(run['ref_s']):.4f} s; "
        f"setup_s: median of {len(setups)} processes"
    )
    return metrics, run


def per_layer(job: dict, deadline: float) -> tuple[dict, dict]:
    half = {**job, "seconds": job["seconds"] / 2}
    plain = spawn({**half, "mode": "verdict"}, deadline)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{job['workload']}-seed{job['seed']}.jsonl"
    traced = spawn({**half, "mode": "trace", "spans_path": str(spans_path)}, deadline)
    metrics = tracer.layer_metrics(traced["summary"], traced["parse_s"])
    metrics["verdict.wall_s"] = statistics.median(plain["pass_s"])
    metrics["trace.overhead_frac"] = (
        statistics.median(in_reference_units(traced)) / statistics.median(in_reference_units(plain)) - 1.0
    )
    print(f"spans of the reported traced pass: {spans_path.relative_to(ROOT)}")
    return metrics, {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "failures": sorted(set(plain["failures"]) | set(traced["failures"])),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so that spawn() kills
    # and waits for the running worker on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "rvfmc" / "__init__.py").is_file():
        print(f"no rvfmc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = monotonic() + TIME_LIMIT_S
    job = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        metrics, checks = (per_layer if args.trace else end_to_end)(job, deadline)
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2
    if set(metrics) != {m["name"] for m in declared}:
        print(f"measured metrics {sorted(metrics)} differ from BENCHMARK.json", file=sys.stderr)
        return 2

    failed, attempted = checks["failed"], checks["attempted"]
    print(f"checks: {failed} of {attempted} failed (failed_frac {failed / attempted:g})")
    if checks["failures"]:
        print(f"failed cases: {', '.join(checks['failures'])}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
