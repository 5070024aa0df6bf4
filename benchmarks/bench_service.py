"""PERF — sustained query throughput of the serving layer.

Times the online side of the system on the tiny serving workload (the
same 8-country, 3-round history ``repro serve-bench`` defaults to):
directory compilation from the campaign result, one incremental round
ingest, the ``.npz`` snapshot round-trip, a Zipf-shaped traffic replay
measuring sustained batched queries/sec, and the multi-process
cluster (1 vs 2 workers, scored on CPU-clock critical paths — see
``benchmarks/README.md`` for why wall clocks cannot measure scale-out on
shared-core CI hosts).  A full-world leg (seed-11 world, 6-round
history, 131 endpoints) records throughput, per-batch latency p50/p99
and the answers digest on a directory of realistic size.  Writes
``BENCH_service.json`` at the repo root, with the host it ran on, so
future PRs have a serving-side perf trajectory next to the engine's
``BENCH_campaign.json``.

Run standalone with ``python benchmarks/bench_service.py`` or via pytest
with the other benches.  ``--smoke --queries N --budget-factor F
[--json-out PATH]`` compiles the directory and replays N queries,
exiting non-zero if compile + replay exceed F times the recorded wall
clocks (replay pro-rated to N queries), then runs the full-world leg
once and exits non-zero if its answers digest differs from the recorded
one — CI's service-bench guard.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import pathlib
import platform
import sys
import time

import numpy as np

if importlib.util.find_spec("repro") is None:  # bare checkout: src layout
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro import CampaignConfig, MeasurementCampaign, build_world
from repro.service import (
    ClusterService,
    LoadgenConfig,
    ShortcutService,
    replay,
)
from repro.topology.config import TopologyConfig
from repro.world import WorldConfig

SEED = 11
COUNTRIES = 8
ROUNDS = 3
QUERIES = 200_000
BATCH_SIZE = 1024
REPEATS = 3  #: best-of-N for the timed sections (history built once)
LIVENESS_ROUNDS = 2  #: health window of the churn-aware degradation leg
CLUSTER_REPEATS = 5  #: interleaved 1-/2-worker replays for the scale-out ratio
CLUSTER_BATCH_SIZE = 8192  #: bigger batches amortize the front's serial CPU
FULL_WORLD_ROUNDS = 6  #: history of the full-world leg (131 endpoints)
FULL_WORLD_QUERIES = 262_144  #: 256 batches of BATCH_SIZE

_OUT_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_service.json"


def _build_history():
    """The tiny-world campaign history the service compiles from."""
    world = build_world(
        seed=SEED,
        config=WorldConfig(topology=TopologyConfig(country_limit=COUNTRIES)),
    )
    campaign = MeasurementCampaign(world, CampaignConfig(num_rounds=ROUNDS))
    return campaign.run()


def _host() -> dict:
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _full_world_leg(repeats: int) -> dict:
    """Replay the full-world directory: throughput, latency, digest.

    The digest is a pure function of the world, the history and the
    stream, so every repeat (and every host) must reproduce it; the
    timings are the best repeat's.
    """
    start = time.perf_counter()
    result = MeasurementCampaign(
        build_world(seed=SEED), CampaignConfig(num_rounds=FULL_WORLD_ROUNDS)
    ).run()
    history_s = time.perf_counter() - start
    start = time.perf_counter()
    service = ShortcutService.from_campaign(result)
    compile_s = time.perf_counter() - start
    config = LoadgenConfig(num_queries=FULL_WORLD_QUERIES, batch_size=BATCH_SIZE)
    runs = [replay(service, config) for _ in range(repeats)]
    best = min(runs, key=lambda stats: stats.wall_clock_s)
    directory = service.directory.stats()
    return {
        "workload": (
            f"full world, seed {SEED}, {FULL_WORLD_ROUNDS}-round history; "
            f"{FULL_WORLD_QUERIES} queries in {BATCH_SIZE}-batches, k=3, COR"
        ),
        "history_s": round(history_s, 3),
        "compile_s": round(compile_s, 4),
        "endpoints": directory["endpoints"],
        "countries": directory["countries"],
        "lookup_index_bytes": directory["lookup_index_bytes"],
        "queries": best.queries,
        "wall_clock_s": best.wall_clock_s,
        "queries_per_s": best.queries_per_s,
        "latency_p50_ms": best.latency_p50_ms,
        "latency_p99_ms": best.latency_p99_ms,
        "tier_counts": best.tier_counts,
        "answers_digest": best.answers_digest,
        "digests_agree": len({stats.answers_digest for stats in runs}) == 1,
    }


def run_bench() -> dict:
    """Time compile / ingest / snapshot / replay; write the report."""
    start = time.perf_counter()
    result = _build_history()
    history_s = time.perf_counter() - start

    compile_s = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        service = ShortcutService.from_campaign(result)
        compile_s = min(compile_s, time.perf_counter() - start)

    # incremental ingest: a service warm on all but the last round folds
    # the last round in (what an operator pays per new measurement round)
    ingest_s = float("inf")
    for _ in range(REPEATS):
        warm = ShortcutService.from_campaign(result, rounds=result.rounds[:-1])
        start = time.perf_counter()
        ingest_stats = warm.ingest_round(result.rounds[-1])
        ingest_s = min(ingest_s, time.perf_counter() - start)

    buffer = io.BytesIO()
    start = time.perf_counter()
    service.save(buffer)
    save_s = time.perf_counter() - start
    snapshot_bytes = len(buffer.getvalue())
    buffer.seek(0)
    start = time.perf_counter()
    restored = ShortcutService.load(buffer)
    restore_s = time.perf_counter() - start
    snapshot_ok = (
        restored.directory.block_signature() == service.directory.block_signature()
    )

    config = LoadgenConfig(num_queries=QUERIES, batch_size=BATCH_SIZE)
    best = None
    for _ in range(REPEATS):
        stats = replay(service, config)
        if best is None or stats.wall_clock_s < best.wall_clock_s:
            best = stats

    # churn-aware leg: the same stream against a liveness-enabled service,
    # recording the health path's degradation counters (stale answers,
    # evictions, tier fallbacks) and its cost next to the health-off
    # replay.  A fresh service per repeat keeps the cumulative counters
    # comparable across runs.
    live_best = live_service = None
    for _ in range(REPEATS):
        candidate = ShortcutService.from_campaign(
            result, liveness_rounds=LIVENESS_ROUNDS
        )
        stats = replay(candidate, config)
        if live_best is None or stats.wall_clock_s < live_best.wall_clock_s:
            live_best, live_service = stats, candidate
    degradation_report = {
        "liveness_rounds": LIVENESS_ROUNDS,
        "dead_relays": live_service.dead_relay_count(),
        "queries_per_s": live_best.queries_per_s,
        "health_cost_pct": round(
            100.0
            * (live_best.wall_clock_s - best.wall_clock_s)
            / best.wall_clock_s,
            1,
        ),
        "tier_counts": live_best.tier_counts,
        "counters": live_best.degradation,
    }

    # multi-process cluster: the same stream against 1 worker and
    # 2 workers, scored on CPU-clock critical paths (front CPU + slowest
    # worker's busy clock), so the scale-out is measurable on a single
    # shared core.  The legs' repeats are interleaved and scored on the
    # summed paths — CPU-frequency drift between sequential legs would
    # otherwise swamp the ratio.  Answers must be byte-identical to the
    # in-process service's at the same batch size (the replay digest
    # hashes per-batch, so the baseline must share the cluster's batch).
    cluster_config = LoadgenConfig(
        num_queries=QUERIES, batch_size=CLUSTER_BATCH_SIZE
    )
    digests = {replay(service, cluster_config).answers_digest}
    paths: dict[int, list[dict]] = {1: [], 2: []}
    with ClusterService.from_service(service, workers=1) as c1, \
            ClusterService.from_service(service, workers=2) as c2:
        for _ in range(CLUSTER_REPEATS):
            for workers, cluster in ((1, c1), (2, c2)):
                stats = replay(cluster, cluster_config)
                digests.add(stats.answers_digest)
                paths[workers].append(stats.scale_out)
    cluster_legs: dict[int, dict] = {}
    for workers, runs in paths.items():
        total_path = sum(r["critical_path_s"] for r in runs)
        cluster_legs[workers] = {
            "aggregate_queries_per_s": int(QUERIES * len(runs) / total_path),
            "critical_path_s": round(total_path, 6),
            "critical_path_min_s": round(
                min(r["critical_path_s"] for r in runs), 6
            ),
            "front_cpu_s": round(sum(r["front_cpu_s"] for r in runs), 6),
            "max_worker_busy_s": round(
                sum(r["max_worker_busy_s"] for r in runs), 6
            ),
        }
    agg_1 = cluster_legs[1]["aggregate_queries_per_s"]
    agg_2 = cluster_legs[2]["aggregate_queries_per_s"]
    speedup = round(agg_2 / agg_1, 3)
    cluster_report = {
        "batch_size": CLUSTER_BATCH_SIZE,
        "protocol": (
            f"{CLUSTER_REPEATS} interleaved replays per worker count, "
            "scored on summed CPU-clock critical paths "
            "(front CPU + slowest worker busy CPU)"
        ),
        "single_worker": cluster_legs[1],
        "two_workers": cluster_legs[2],
        "speedup": speedup,
        "efficiency": round(speedup / 2, 3),
        "digest_match": len(digests) == 1,
    }

    full_world = _full_world_leg(REPEATS)

    report = {
        "host": _host(),
        "workload": (
            f"{COUNTRIES}-country world, seed {SEED}, {ROUNDS}-round history; "
            f"{QUERIES} queries in {BATCH_SIZE}-batches"
        ),
        "protocol": f"best of {REPEATS} runs per timed section",
        "history": {
            "build_s": round(history_s, 3),
            "total_cases": result.total_cases,
            "rounds": len(result.rounds),
            "relays_registered": len(result.registry),
        },
        "compile_s": round(compile_s, 4),
        "ingest_round_s": round(ingest_s, 4),
        "ingest_touched_lanes": ingest_stats["touched_lanes"],
        "snapshot": {
            "bytes": snapshot_bytes,
            "save_s": round(save_s, 4),
            "restore_s": round(restore_s, 4),
            "roundtrip_ok": snapshot_ok,
        },
        "directory": service.stats(),
        "replay": best.as_dict(),
        "degradation": degradation_report,
        "cluster": cluster_report,
        "full_world": full_world,
    }
    _OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def run_smoke(
    queries: int, budget_factor: float, json_out: str | None = None
) -> int:
    """Compile + replay checked against the recorded wall clocks, then
    the full-world leg checked against the recorded answers digest.

    The budget is ``budget_factor x`` (recorded compile + recorded replay
    wall pro-rated to ``queries``) plus a 2 s grace for fixed costs; the
    history build is excluded from the budget (the campaign engine has its
    own drift guard).  The full-world check is exact and untimed.
    Returns a process exit code.
    """
    recorded = json.loads(_OUT_PATH.read_text())
    replay_budget = (
        recorded["replay"]["wall_clock_s"] * queries / recorded["replay"]["queries"]
    )
    budget = budget_factor * (recorded["compile_s"] + replay_budget) + 2.0

    result = _build_history()
    start = time.perf_counter()
    service = ShortcutService.from_campaign(result)
    stats = replay(
        service, LoadgenConfig(num_queries=queries, batch_size=BATCH_SIZE)
    )
    elapsed = time.perf_counter() - start
    ok = elapsed <= budget and stats.relay_answer_frac > 0.0
    print(
        f"smoke: compile + {queries}-query replay took {elapsed:.3f} s "
        f"(budget {budget:.3f} s = {budget_factor}x recorded compile "
        f"{recorded['compile_s']} s + pro-rated replay + 2 s grace); "
        f"{stats.queries_per_s:,} queries/s -> {'OK' if ok else 'TOO SLOW'}"
    )
    full_world = _full_world_leg(repeats=1)
    digest_ok = (
        full_world["answers_digest"] == recorded["full_world"]["answers_digest"]
    )
    print(
        f"smoke: full world ({full_world['endpoints']} endpoints) "
        f"{full_world['queries_per_s']:,} queries/s, batch latency p50 "
        f"{full_world['latency_p50_ms']} ms p99 {full_world['latency_p99_ms']} "
        f"ms; answers digest {full_world['answers_digest']} -> "
        f"{'OK' if digest_ok else 'DIFFERS from the recorded one'}"
    )
    if json_out is not None:
        summary = {
            "queries": queries,
            "wall_clock_s": round(elapsed, 3),
            "budget_s": round(budget, 3),
            "budget_factor": budget_factor,
            "queries_per_s": stats.queries_per_s,
            "relay_answer_frac": stats.relay_answer_frac,
            "tier_counts": stats.tier_counts,
            "full_world": full_world,
            "ok": ok and digest_ok,
        }
        pathlib.Path(json_out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if ok and digest_ok else 1


def test_service_bench(report_sink):
    report = run_bench()
    best = report["replay"]
    cluster = report["cluster"]
    report_sink(
        "perf_service",
        f"workload: {report['workload']}\n"
        f"history build: {report['history']['build_s']:.2f} s "
        f"({report['history']['total_cases']} cases)\n"
        f"compile: {report['compile_s'] * 1000:.1f} ms, incremental ingest: "
        f"{report['ingest_round_s'] * 1000:.1f} ms "
        f"({report['ingest_touched_lanes']} touched lanes)\n"
        f"snapshot: {report['snapshot']['bytes']} bytes, save "
        f"{report['snapshot']['save_s'] * 1000:.1f} ms, restore "
        f"{report['snapshot']['restore_s'] * 1000:.1f} ms\n"
        f"replay: {best['queries']} queries -> {best['queries_per_s']:,} "
        f"queries/s ({100 * best['relay_answer_frac']:.1f}% relay answers)\n"
        f"degradation (liveness={report['degradation']['liveness_rounds']}): "
        f"{report['degradation']['counters']['candidates_evicted']} evicted, "
        f"{report['degradation']['counters']['fallback_country']} country "
        f"fallbacks, health cost "
        f"{report['degradation']['health_cost_pct']}%\n"
        f"cluster: 1 worker "
        f"{cluster['single_worker']['aggregate_queries_per_s']:,.0f} q/s, "
        f"2 workers "
        f"{cluster['two_workers']['aggregate_queries_per_s']:,.0f} q/s "
        f"(speedup {cluster['speedup']}x, efficiency {cluster['efficiency']})\n"
        f"full world: {report['full_world']['queries_per_s']:,} queries/s, "
        f"batch latency p50 {report['full_world']['latency_p50_ms']} ms p99 "
        f"{report['full_world']['latency_p99_ms']} ms "
        f"(written to {_OUT_PATH.name})",
    )
    # the acceptance floor: the tiny world must sustain >= 100k batched
    # queries/sec with a healthy answer rate and a clean snapshot
    assert best["queries_per_s"] >= 100_000
    assert best["relay_answer_frac"] >= 0.5
    assert report["snapshot"]["roundtrip_ok"]
    # incremental ingest must be cheaper than a full compile
    assert report["ingest_round_s"] <= report["compile_s"]
    # the cluster must answer byte-identically and scale: the recorded
    # target is >= 1.6x at 2 workers, asserted here with flake headroom
    assert cluster["digest_match"]
    assert cluster["speedup"] >= 1.3
    assert report["full_world"]["digests_agree"]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="compile + replay checked against the recorded wall clocks",
    )
    parser.add_argument("--queries", type=int, default=10_000, help="smoke queries")
    parser.add_argument(
        "--budget-factor", type=float, default=3.0,
        help="smoke budget as a multiple of the recorded wall clocks",
    )
    parser.add_argument(
        "--json-out", default=None,
        help="write the smoke outcome as JSON (CI's service-bench artifact)",
    )
    cli_args = parser.parse_args()
    if cli_args.smoke:
        sys.exit(run_smoke(cli_args.queries, cli_args.budget_factor, cli_args.json_out))
    print(json.dumps(run_bench(), indent=2))
