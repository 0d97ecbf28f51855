"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload served-light --seed 1 --seconds 10 --trace 0

Prints a readable report, then, as the last line, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
replay with ``--trace 1``.  Exits 0 only when the run completed; exits 2
without a result when the program's sources are not beside it.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="draw seed (default: the workload's default seed)")
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed region")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    # run the same teardown as Ctrl-C: every spawned process is stopped
    raise KeyboardInterrupt(f"signal {signum}")


def main(argv=None) -> int:
    arguments = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import SPEC, run_workload

    workloads = SPEC["workloads"]
    if arguments.workload not in workloads:
        print(f"perfbench: unknown workload {arguments.workload!r} "
              f"(have: {', '.join(workloads)})", file=sys.stderr)
        return 2
    seed = arguments.seed if arguments.seed is not None else workloads[arguments.workload]["default_seed"]
    signal.signal(signal.SIGTERM, _terminate)
    result = run_workload(arguments.workload, seed, arguments.seconds, bool(arguments.trace))
    print(f"workload {arguments.workload} seed {seed} trace {arguments.trace}")
    for line in result.lines:
        print(line)
    for name, (value, unit) in result.metrics.items():
        print(f"{name:<28} {value:14.4f} {unit}")
    print(f"correct: {result.correct}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
