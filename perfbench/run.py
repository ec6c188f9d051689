"""The repository benchmark: a gateway-fronted n=4 TetraBFT cluster.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paced-mix --seed 1 --seconds 20 --trace 0

Spawns four replica processes and a gateway host from ``src/``, drives
one workload (see :mod:`workloads`) from this single-threaded process,
checks the run (safety audit, read values, commit reconciliation) and
prints every end-to-end metric (``--trace 0``) or every per-layer
metric (``--trace 1``).  The last line of standard output is one JSON
object; the exit code is nonzero when the run fails its correctness
gate or the program cannot be found.

Per-run series (commits and generator lateness per second) are written
to ``.perfbench/series/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: Set-ups per untraced run; ``setup_s`` is their median.  The last one
#: before the measured pass is the deployment it measures; the rest are
#: torn down at once, and those after the pass sample the host late in
#: the run as well as early.
SETUPS_BEFORE = 5
SETUPS_AFTER = 4

#: Seconds a run may take beyond warm-up and window (set-ups, drain,
#: catch-up, collect): sizes the TetraBFT chain budget.
RUN_SLACK = 120.0


def _stop_resource_tracker(timeout: float = 10.0) -> None:
    """Stop and reap the resource tracker that ``multiprocessing`` starts
    with the first spawned process.

    Left alone it outlives this process (it exits only once every holder
    of its pipe is gone), so the run would end with a process of its own
    still running.  Call it after every deployment has been reaped.
    """
    import os
    import signal
    import time
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    pid, fd = tracker._pid, tracker._fd
    if pid is None:
        return
    tracker._pid = tracker._fd = None
    os.close(fd)  # end of its pipe: it exits once every child is gone
    deadline = time.monotonic() + timeout
    while os.waitpid(pid, os.WNOHANG) == (0, 0):
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return
        time.sleep(0.02)


def _load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


async def _run(workload, seed: int, seconds: float, trace: bool, rundir: Path):
    import statistics

    import report
    from workloads import measure, set_up

    budget = workload.warmup + seconds + RUN_SLACK

    async def throwaway_setups(names) -> list[float]:
        times = []
        for name in names:
            deployment, gateway, _, setup_s = await set_up(
                rundir / name, workload, budget, trace=False
            )
            gateway.close()
            deployment.abort()
            times.append(setup_s)
        return times

    if not trace:
        setup_times = await throwaway_setups(f"before{i}" for i in range(SETUPS_BEFORE - 1))
        deployment, gateway, log, setup_s = await set_up(
            rundir / "measured", workload, budget, trace=False
        )
        setup_times.append(setup_s)
        try:
            run = await measure(deployment, gateway, log, workload, seed, seconds)
        finally:
            deployment.abort()
        setup_times += await throwaway_setups(f"after{i}" for i in range(SETUPS_AFTER))
        return [run], report.end_to_end(run, statistics.median(setup_times)), setup_times
    passes = []
    for traced in (False, True):
        deployment, gateway, log, _ = await set_up(
            rundir / f"trace{int(traced)}", workload, budget, trace=traced
        )
        try:
            passes.append(await measure(deployment, gateway, log, workload, seed, seconds))
        finally:
            deployment.abort()
    untraced, traced_run = passes
    return passes, report.per_layer(traced_run, untraced), []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import asyncio
    import compileall
    import shutil
    import traceback

    import report
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        known = ", ".join(WORKLOADS)
        print(f"perfbench: unknown workload {args.workload!r}; known: {known}", file=sys.stderr)
        return 2
    spec = _load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    # Byte-compile once per checkout, before any timing: every spawned
    # process then imports from __pycache__, so set-up time does not
    # depend on whether the environment lets Python write bytecode.
    for tree in (ROOT / "src", Path(__file__).resolve().parent):
        compileall.compile_dir(str(tree), quiet=1)

    scratch = ROOT / ".perfbench"
    rundir = scratch / "runs" / f"{workload.name}-s{args.seed}-t{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    problems: list[str] = []
    try:
        passes, values, setup_times = asyncio.run(
            _run(workload, args.seed, args.seconds, bool(args.trace), rundir)
        )
    except Exception:  # the run's boundary: report it as a failed run
        traceback.print_exc()
        passes, values, setup_times = [], {}, []
        problems.append("the run raised; see the traceback on stderr")
    finally:
        _stop_resource_tracker()
        shutil.rmtree(rundir, ignore_errors=True)

    problems += [p for run in passes for p in report.verdict(run)]
    attempted = sum(len(run.log.ops) for run in passes)
    failed = sum(report.failed_count(run) for run in passes)

    series_dir = scratch / "series"
    series_dir.mkdir(parents=True, exist_ok=True)
    (series_dir / f"{workload.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(
            {
                "workload": workload.name,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "setup_s": setup_times,
                "samples": [report.samples(run) for run in passes],
                "passes": [report.series(run) for run in passes],
                "problems": problems,
            },
            indent=1,
        )
    )

    units = dict(report.END_TO_END) | {m["name"]: m["unit"] for m in spec["per_layer"]}
    print(f"# perfbench {workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    if passes and not args.trace:
        counts = report.samples(passes[0])
        print(f"#   samples: commits={counts['commit']} reads={counts['read']}")
    for name, value in values.items():
        shown = "n/a" if value is None else f"{value:.4f}"
        print(f"#   {name:<28} {shown:>12} {units.get(name, '')}")
    for problem in problems:
        print(f"# FAILED: {problem}")

    metrics = {}
    if not problems:
        for metric in wanted:
            value = values.get(metric["name"])
            if value is None:
                problems.append(f"metric {metric['name']} was not measured")
                continue
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics if not problems else {},
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
