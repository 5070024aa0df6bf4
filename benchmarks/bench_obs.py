"""PERF — overhead of the observability layer on the campaign engine.

Runs the 6-round full-world campaign (the same workload as
``bench_perf_campaign.py``) with observability fully off and fully on
(metrics + trace), interleaved best-of-N per mode so CPU-frequency drift
cannot masquerade as instrumentation cost, and records the relative
overhead into ``BENCH_obs.json`` at the repo root.  The hard acceptance
guard: instrumentation may cost **under 3%** of the uninstrumented wall
clock.

The bench also proves the determinism contract both ways: the
metrics-off campaign result serialises byte-identically to the
metrics-on one (instrumentation never touches RNG or control flow), and
two instrumented runs produce byte-identical *structural* metric
sections (counters/gauges; only timings vary).

Run standalone with ``python benchmarks/bench_obs.py`` or via pytest
with the other benches.  ``--smoke --budget-factor F [--json-out PATH]``
repeats the comparison with fewer repeats and gates overhead under
``F x`` the 3% limit — CI's obs-overhead guard.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import pathlib
import sys
import time

if importlib.util.find_spec("repro") is None:  # bare checkout: src layout
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro import CampaignConfig, MeasurementCampaign, build_world, obs
from repro.core.io import save_result

SEED = 11
ROUNDS = 6
REPEATS = 5  #: interleaved off/on pairs; best-of per mode
OVERHEAD_LIMIT_PCT = 3.0  #: the acceptance ceiling on instrumentation cost

_OUT_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_obs.json"


def _run_campaign(world) -> tuple[float, object]:
    """One timed 6-round campaign over a prebuilt world."""
    campaign = MeasurementCampaign(world, CampaignConfig(num_rounds=ROUNDS))
    start = time.perf_counter()
    result = campaign.run()
    return time.perf_counter() - start, result


def _result_bytes(result, workdir: pathlib.Path, tag: str) -> bytes:
    path = workdir / f"{tag}.npz"
    save_result(result, str(path))
    return path.read_bytes()


def _measure(repeats: int) -> dict:
    """Interleaved off/on campaign timings plus the determinism checks."""
    import tempfile

    world = build_world(seed=SEED)
    off_walls: list[float] = []
    on_walls: list[float] = []
    trace_events = 0
    counters: dict[str, int] = {}
    structural: list[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-obs-") as tmp:
        workdir = pathlib.Path(tmp)
        result_bytes: dict[str, bytes] = {}
        for rep in range(repeats):
            wall, result = _run_campaign(world)
            off_walls.append(wall)
            if rep == 0:
                result_bytes["off"] = _result_bytes(result, workdir, "off")
            obs.enable(metrics=True, trace=True)
            try:
                wall, result = _run_campaign(world)
                on_walls.append(wall)
                if rep == 0:
                    result_bytes["on"] = _result_bytes(result, workdir, "on")
                artifact = obs.metrics_registry().as_artifact()
                structural.append(
                    json.dumps(artifact["structural"], sort_keys=True)
                )
                counters = artifact["structural"]["counters"]
                trace_events = len(obs.tracer())
            finally:
                obs.disable()
        identical = result_bytes["off"] == result_bytes["on"]
    off_best = min(off_walls)
    on_best = min(on_walls)
    return {
        "off_best_s": round(off_best, 4),
        "on_best_s": round(on_best, 4),
        "off_walls_s": [round(w, 4) for w in off_walls],
        "on_walls_s": [round(w, 4) for w in on_walls],
        "overhead_pct": round(100.0 * (on_best - off_best) / off_best, 2),
        "result_bytes_identical": identical,
        "structural_sections_identical": len(set(structural)) == 1,
        "trace_events_per_run": trace_events,
        "counters": counters,
    }


def run_bench() -> dict:
    """Measure instrumentation overhead best-of-N; write the report."""
    measured = _measure(REPEATS)
    report = {
        "workload": f"full world, seed {SEED}, {ROUNDS}-round campaign",
        "protocol": (
            f"{REPEATS} interleaved off/on runs, overhead scored on "
            "best-of wall clocks; obs on = metrics + trace recording"
        ),
        "overhead_limit_pct": OVERHEAD_LIMIT_PCT,
        **measured,
        "ok": (
            measured["overhead_pct"] < OVERHEAD_LIMIT_PCT
            and measured["result_bytes_identical"]
            and measured["structural_sections_identical"]
        ),
    }
    _OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def run_smoke(budget_factor: float, json_out: str | None = None) -> int:
    """A faster overhead check for CI: fewer repeats, scaled ceiling.

    The limit is ``budget_factor x`` the recorded 3% ceiling — CI boxes
    share cores, so the factor buys noise headroom while still catching
    an instrumentation path that grew real per-ping cost.  Returns a
    process exit code.
    """
    measured = _measure(max(2, REPEATS - 2))
    limit = OVERHEAD_LIMIT_PCT * budget_factor
    ok = (
        measured["overhead_pct"] < limit
        and measured["result_bytes_identical"]
        and measured["structural_sections_identical"]
    )
    print(
        f"smoke: obs overhead {measured['overhead_pct']}% "
        f"(limit {limit}% = {budget_factor}x recorded "
        f"{OVERHEAD_LIMIT_PCT}% ceiling); result bytes "
        f"{'identical' if measured['result_bytes_identical'] else 'DIFFER'}, "
        f"structural sections "
        f"{'stable' if measured['structural_sections_identical'] else 'DRIFT'} "
        f"-> {'OK' if ok else 'FAILED'}"
    )
    if json_out is not None:
        summary = {
            "overhead_pct": measured["overhead_pct"],
            "limit_pct": limit,
            "budget_factor": budget_factor,
            "result_bytes_identical": measured["result_bytes_identical"],
            "structural_sections_identical": measured[
                "structural_sections_identical"
            ],
            "ok": ok,
        }
        pathlib.Path(json_out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if ok else 1


def test_obs_bench(report_sink):
    report = run_bench()
    report_sink(
        "perf_obs",
        f"workload: {report['workload']}\n"
        f"off best: {report['off_best_s']:.3f} s, on best: "
        f"{report['on_best_s']:.3f} s -> overhead {report['overhead_pct']}% "
        f"(limit {report['overhead_limit_pct']}%)\n"
        f"trace events per run: {report['trace_events_per_run']}, "
        f"rounds counted: {report['counters'].get('campaign.rounds')}\n"
        f"result bytes identical: {report['result_bytes_identical']}, "
        f"structural sections identical: "
        f"{report['structural_sections_identical']} "
        f"(written to {_OUT_PATH.name})",
    )
    # the acceptance guard: instrumentation under 3% of the campaign's
    # wall clock, no behavioral drift either way
    assert report["overhead_pct"] < report["overhead_limit_pct"]
    assert report["result_bytes_identical"]
    assert report["structural_sections_identical"]
    assert report["counters"]["campaign.rounds"] == ROUNDS


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="fewer repeats, overhead gated at budget-factor x the ceiling",
    )
    parser.add_argument(
        "--budget-factor", type=float, default=3.0,
        help="smoke overhead limit as a multiple of the recorded 3% ceiling",
    )
    parser.add_argument(
        "--json-out", default=None,
        help="write the smoke outcome as JSON (CI's obs-overhead artifact)",
    )
    cli_args = parser.parse_args()
    if cli_args.smoke:
        sys.exit(run_smoke(cli_args.budget_factor, cli_args.json_out))
    print(json.dumps(run_bench(), indent=2))
