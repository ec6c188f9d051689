"""The benchmark's own smoke test.

Runs every workload once at tiny size, untraced and traced, and checks
that each run passes its correctness gate and emits every metric
``BENCHMARK.json`` names, with its unit; that the human-readable report
names all end-to-end metrics; that ``perfbench/layers.json`` maps every
per-layer metric; and that WAL fsyncs happen on ``crash-restart`` only.

    python3 perfbench/smoke.py

Exits nonzero on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Window of each smoke run, seconds: long enough for crash-restart to
#: kill and restart its replica.
SECONDS = 3

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"smoke: FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def main() -> int:
    from report import END_TO_END
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())["layers"]
    mapped = {name for layer in layers for name in layer["metrics"]}
    for metric in spec["per_layer"]:
        check(metric["name"] in mapped, f"{metric['name']} is missing from layers.json")

    # Every workload the benchmark can run, including the ones
    # BENCHMARK.json leaves out.
    for workload in WORKLOADS:
        for trace in (0, 1):
            run = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "0", "--seconds", str(SECONDS), "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=300,
            )
            where = f"{workload} trace={trace}"
            lines = run.stdout.strip().splitlines()
            check(run.returncode == 0, f"{where} exited {run.returncode}:\n{run.stdout}{run.stderr}")
            result = json.loads(lines[-1])
            check(result["correct"], f"{where} failed its correctness gate")
            check(result["attempted"] >= 1, f"{where} attempted nothing")
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            for metric in wanted:
                got = result["metrics"].get(metric["name"])
                check(got is not None, f"{where} did not emit {metric['name']}")
                check(got["unit"] == metric["unit"], f"{where} {metric['name']} has unit {got['unit']}")
                check(isinstance(got["value"], (int, float)), f"{where} {metric['name']} is no number")
            if not trace:
                # "#   <name>  <value or n/a>  <unit>" lines before the JSON.
                printed = {
                    line.split()[1]: line.split()[-1]
                    for line in lines[:-1]
                    if line.startswith("#   ")
                }
                for name, unit in END_TO_END:
                    check(printed.get(name) == unit, f"{where} report does not name {name} [{unit}]")
            else:
                fsyncs = result["metrics"]["storage.fsyncs_per_block"]["value"]
                if workload == "crash-restart":
                    check(fsyncs > 0, f"{where} storage.fsyncs_per_block is {fsyncs}")
                else:
                    check(fsyncs == 0, f"{where} storage.fsyncs_per_block is {fsyncs}")
            print(f"smoke: {where} ok ({result['attempted']} ops)", flush=True)
    print("smoke: all workloads ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
