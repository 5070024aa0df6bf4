"""The repository benchmark: one command, four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign-cold --seed 11 --seconds 10 --trace 0
    python3 perfbench/run.py --workload serve-churn --seed 11 --seconds 10 --trace 1
    python3 perfbench/run.py --smoke

``--trace 0`` measures with observability off and reports the end-to-end
metrics; ``--trace 1`` adds a traced run and reports the per-layer
metrics (names and units are listed in ``BENCHMARK.json``; the workloads
and the metric map are described in ``perfbench/README.md``).  Human-
readable lines come first; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The command
exits 1 when an output check fails and 2 when it cannot run at all (no
program source beside it, a measured process failed).

Every file a run writes lives in the repository: byte-compiled modules
in the usual ``__pycache__`` directories, everything else in a per-run
work directory under ``.bench_build/`` that is deleted on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    PER_LAYER,
    SIZES,
    WORKLOADS,
    BenchError,
    Runner,
    median,
)

#: The end-to-end metrics every workload reports (contract order).
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")

#: Every workload's own end-to-end figures, printed by name and unit
#: (the subset a workload does not have is left out of its lines).
WORKLOAD_FIGURES = (
    "wall_s", "analyze_s", "setup_s", "peak_rss_mb", "artifact_mb", "qps",
    "latency_p50_ms", "latency_p99_ms", "ingest_s", "failed_frac",
)

UNITS = {
    "MB": ("peak_rss_mb", "artifact_mb", "io.save_mb"),
    "1/s": ("qps",),
    "ms": ("latency_p50_ms", "latency_p99_ms"),
    "frac": ("sweep.pool_busy_frac", "unattributed_frac", "failed_frac"),
    "count": (
        "worldcache.hits", "worldcache.misses", "campaign.pings", "campaign.pairs",
        "service.batches", "service.tier_pair", "service.tier_country",
        "service.tier_direct", "service.candidates_evicted",
        "service.stale_top_answers", "service.fallback_country",
        "service.unanswerable", "latency_samples",
    ),
}


def unit_of(name: str) -> str:
    for unit, names in UNITS.items():
        if name in names:
            return unit
    return "s"


def child_env(work: Path) -> dict:
    """Every child imports the checkout's ``src``, keeps its scratch files
    in the run's work directory and ignores a user's world cache."""
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("REPRO_WORLD_CACHE", "PYTHONPATH", "PYTHONSTARTUP")
    }
    env.update(PYTHONPATH=str(ROOT / "src"), TMPDIR=str(work))
    return env


def measure(workload: str, seed: int, seconds: float, traced: bool, size="full") -> dict:
    """Run one workload and assemble the metrics the contract names."""
    work = ROOT / ".bench_build" / "perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env(work)
    try:
        # byte-compile once, so no measured import pays for compilation
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
            env=env,
            check=True,
            stdout=subprocess.DEVNULL,
        )
        runner = Runner(work, env, deadline=time.monotonic() + 170.0, size=SIZES[size])
        outcome = WORKLOADS[workload](runner, seed, seconds, traced)
        if traced:
            outcome.layers["interp_start_s"] = median(runner.bare_interpreter(5))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed_frac = outcome.e2e.get("failed_frac", outcome.failed / max(outcome.attempted, 1))
    outcome.e2e["failed_frac"] = failed_frac
    if traced:
        for name in WORKLOAD_FIGURES:
            if name in PER_LAYER:
                outcome.layers[name] = outcome.e2e.get(name, 0)
        names = PER_LAYER
        values = outcome.layers
    else:
        names = END_TO_END
        values = outcome.e2e
    return {
        "outcome": outcome,
        "metrics": {
            name: {"value": values[name], "unit": unit_of(name)} for name in names
        },
    }


def _print_lines(workload: str, traced: bool, outcome, metrics: dict) -> None:
    print(f"workload {workload} ({'traced' if traced else 'untraced'})")
    for note in outcome.notes:
        print(f"  {note}")
    for name, digest in outcome.digests.items():
        print(f"  digest {name}: {digest}")
    for name in WORKLOAD_FIGURES:
        if name in outcome.e2e:
            print(f"  {name:<24} {outcome.e2e[name]:>14.6g} {unit_of(name)}")
    if outcome.accounting:
        print("  traced wall accounting (top-level spans):")
        for name, value in outcome.accounting:
            print(f"    {name:<30} {value:>10.4f} s")
    if traced:
        for name, entry in metrics.items():
            print(f"  {name:<28} {entry['value']:>14.6g} {entry['unit']}")
    for problem in outcome.problems:
        print(f"  CHECK FAILED: {problem}")


def check_contract(metrics: dict, traced: bool) -> list[str]:
    """Every metric BENCHMARK.json names is emitted, with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if traced else "end_to_end"]
    problems = [
        f"metric {entry['name']} missing or not in {entry['unit']}"
        for entry in listed
        if metrics.get(entry["name"], {}).get("unit") != entry["unit"]
    ]
    extra = set(metrics) - {entry["name"] for entry in listed}
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def smoke() -> int:
    """Every workload, traced and untraced, at the shortest run length:
    assert each named metric is emitted with its unit."""
    problems = []
    for workload in WORKLOADS:
        for traced in (False, True):
            result = measure(workload, 11, 0.5, traced, size="tiny")
            problems += [
                f"{workload} trace={traced:d}: {p}"
                for p in check_contract(result["metrics"], traced)
                + result["outcome"].problems
            ]
            print(f"smoke {workload} trace={traced:d}: {len(result['metrics'])} metrics")
    for problem in problems:
        print(f"SMOKE FAILED: {problem}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=sorted(SIZES),
        default="full",
        help="input sizes (full = the benchmark; roadmap = world 11 uncapped)",
    )
    parser.add_argument("--smoke", action="store_true", help="check every metric is emitted")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    traced = bool(args.trace)
    try:
        result = measure(args.workload, args.seed, args.seconds, traced, args.size)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    outcome = result["outcome"]
    outcome.problems += check_contract(result["metrics"], traced)
    _print_lines(args.workload, traced, outcome, result["metrics"])
    correct = not outcome.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": result["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
