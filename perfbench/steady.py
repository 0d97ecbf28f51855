"""Run-to-run spread of the end-to-end metrics, and trajectory records.

Usage (from the repository root)::

    python3 perfbench/steady.py --seeds 1-10 [--workloads a,b] [--out runs.json]

Runs ``perfbench/run.py`` once per workload and seed, one run at a time,
and prints for every end-to-end metric its median, quartiles and spread
(quartile distance over median) next to a third of the metric's bound
from ``BENCHMARK.json``.  ``--out`` keeps every run's JSON result;
``--record`` appends one trajectory record (medians, quartiles, and the
traced breakdown of one run per workload) to ``perfbench/trajectory.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import quartiles, spread  # noqa: E402


def _seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-", 1)
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, str]:
    """One run's JSON result and its readable report."""
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=900,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: rc={completed.returncode}\n{completed.stderr[-3000:]}")
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--record", default=None, metavar="LABEL",
                        help="append a trajectory record under this label")
    arguments = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (
        arguments.workloads.split(",") if arguments.workloads
        else [w["name"] for w in bench["workloads"]]
    )
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    runs: dict[str, list[dict]] = {}
    summary: dict[str, dict] = {}
    for workload in workloads:
        results = []
        for seed in _seeds(arguments.seeds):
            started = time.monotonic()
            result, _ = run_once(workload, seed, seconds, 0)
            result["seed"] = seed
            result["wall_s"] = round(time.monotonic() - started, 2)
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"wall={result['wall_s']}s", flush=True)
        runs[workload] = results
        summary[workload] = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = quartiles(values)
            summary[workload][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread(values),
            }
            flag = "" if spread(values) < bounds[name] / 3 else "  <-- above bound/3"
            if name == "setup_s":
                flag = ""
            print(f"  {name:<22} median {median:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
                  f"spread {spread(values):.4f}  bound/3 {bounds[name] / 3:.4f}{flag}", flush=True)
    if arguments.out:
        Path(arguments.out).write_text(json.dumps({"runs": runs, "summary": summary}, indent=1))
    if arguments.record:
        breakdowns = {}
        for workload in workloads:
            result, report = run_once(workload, _seeds(arguments.seeds)[0], seconds, 1)
            breakdowns[workload] = {
                "correct": result["correct"],
                "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
                "report": [line for line in report.splitlines() if not line.startswith("sessions:")],
            }
        record = {
            "label": arguments.record,
            "seeds": arguments.seeds,
            "run_seconds": seconds,
            "end_to_end": summary,
            "traced": breakdowns,
        }
        with open(ROOT / "perfbench" / "trajectory.jsonl", "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
