"""Run-to-run spread of the end-to-end metrics, with the host recorded.

Usage (from the repository root)::

    python3 perfbench/spread.py --seeds 11 12 13 14 15 16 17 18 19 20
    python3 perfbench/spread.py --workloads serve-churn --seeds 11 12 13 14 15

Runs ``run.py`` once per (workload, seed), untraced, and reports for each
end-to-end metric the median of its values and the distance between
their first and third quartiles (``statistics.quantiles(values, n=4)``)
as a share of the median: the noise a bound in ``BENCHMARK.json`` must
sit above.  ``--out`` writes the figures together with the host they
were measured on (cores, CPU model, Python and NumPy versions) and how
long one run took end to end, so that numbers from different hosts are
never compared blind.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def host() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", help="write host and spreads as JSON here")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"host": host(), "seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        run_walls = []
        for seed in args.seeds:
            start = time.perf_counter()
            proc = subprocess.run(
                [
                    sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
                ],
                cwd=str(ROOT),
                capture_output=True,
                text=True,
            )
            run_walls.append(time.perf_counter() - start)
            if proc.returncode != 0:
                print(proc.stdout, proc.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            if seed == args.seeds[0]:
                digests = dict(
                    line.strip()[len("digest "):].split(": ")
                    for line in proc.stdout.splitlines()
                    if line.strip().startswith("digest ")
                )
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        section = {
            "run_s": {"median": statistics.median(run_walls), "max": max(run_walls)},
            f"digests_seed_{args.seeds[0]}": digests,
        }
        for name, series in values.items():
            section[name] = {
                "median": statistics.median(series),
                "spread": spread(series),
                "bound": bounds[name],
                "values": series,
            }
            print(
                f"{workload:<14} {name:<12} median {section[name]['median']:10.4f}  "
                f"spread {section[name]['spread']:.4f}  bound {bounds[name]}"
            )
        report["workloads"][workload] = section
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
