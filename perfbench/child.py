"""The measured programs: each mode runs in a fresh interpreter.

``python3 perfbench/child.py MODE PARAMS_JSON`` runs one mode and writes
its report (timestamps, spans, peak RSS, outputs) as JSON to
``params["report"]``.  ``run.py`` spawns these processes and times them
from outside; every timestamp here is ``time.perf_counter()``, which on
Linux reads the system-wide monotonic clock, so parent and child
timestamps share one time base.

The campaign and analyze modes make the same public calls as
``repro.cli``'s ``campaign`` and ``analyze --report fig2`` commands; the
serving modes drive ``ShortcutService`` / ``ClusterService`` with a
closed-loop client (one caller, next batch sent when the last returns).
With ``params["trace"]`` set, ``repro.obs`` metrics are enabled so the
layer spans the program already records (campaign round phases, snapshot
swaps, world-cache counters) are read back; the benchmark's own spans
around each public call are recorded in both modes and cost a few clock
reads per call.
"""

import time

T_TOP = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402

BATCH = 1024
K = 3


class Spans:
    """The benchmark's own span recorder: (name, start, end) rows."""

    def __init__(self) -> None:
        self.rows: list[tuple[str, float, float]] = []

    @contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.rows.append((name, start, time.perf_counter()))


def _peak_rss_mb() -> float:
    """Peak resident set of this process and its reaped children, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _obs_payload() -> dict | None:
    from repro import obs

    registry = obs.metrics_registry()
    return registry.to_payload() if registry is not None else None


def _report(params: dict, spans: Spans, t_end: float, **fields) -> None:
    out = {
        "t_top": T_TOP,
        "t_end": t_end,
        "spans": spans.rows,
        "peak_rss_mb": _peak_rss_mb(),
        "obs": _obs_payload() if params.get("trace") else None,
    }
    out.update(fields)
    with open(params["report"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)


def _enable_obs(params: dict) -> None:
    if params.get("trace"):
        from repro import obs

        obs.enable(metrics=True)


# ------------------------------------------------------------- campaign
def _campaign_world(params: dict):
    from repro.topology.config import TopologyConfig
    from repro.world import WorldConfig, build_world

    return build_world(
        seed=params["world_seed"],
        config=WorldConfig(topology=TopologyConfig(country_limit=params["countries"])),
        world_cache=None,
        use_world_cache=False,
    )


def _campaign_config(params: dict):
    from repro.core.config import CampaignConfig

    return CampaignConfig(
        num_rounds=params["rounds"], max_countries=params.get("max_countries")
    )


def mode_campaign(params: dict) -> None:
    """``repro campaign --seed S --rounds R --max-countries M
    --no-world-cache --out PATH``, call by call."""
    spans = Spans()
    with spans("import"):
        from repro import cli  # noqa: F401  (the CLI's import set)
        from repro.core.campaign import MeasurementCampaign
        from repro.core.io import save_result
    _enable_obs(params)
    with spans("world.build"):
        world = _campaign_world(params)
    with spans("routing.fabric"):
        world.ensure_routing_fabric()
    t_setup = time.perf_counter()
    with spans("campaign"):
        campaign = MeasurementCampaign(world, _campaign_config(params))
        result = campaign.run(
            progress=lambda i, rnd: print(
                f"round {i}: {rnd.num_pairs()} pairs, {rnd.pings_sent} pings",
                file=sys.stderr,
            )
        )
    with spans("io.save"):
        save_result(result, params["out"])
    print(f"wrote {result.total_cases} observations to {params['out']}")
    t_end = time.perf_counter()
    _report(
        params,
        spans,
        t_end,
        t_setup=t_setup,
        endpoints_per_round=[len(rnd.endpoint_ids) for rnd in result.rounds],
        artifact_bytes=os.path.getsize(params["out"]),
    )


def mode_analyze(params: dict) -> None:
    """``repro analyze PATH --report fig2``, call by call."""
    spans = Spans()
    with spans("import"):
        from repro import cli  # noqa: F401
        from repro.core.io import load_result
        from repro.core.types import RELAY_TYPE_ORDER
    _enable_obs(params)
    with spans("io.load"):
        result = load_result(params["artifact"])
    with spans("analysis"):
        from repro.analysis.improvements import ImprovementAnalysis
        from repro.analysis.plotting import render_cdf

        analysis = ImprovementAnalysis(result)
        for key, value in analysis.summary().items():
            print(f"{key:>36}: {value}")
        series = {
            t.display_name: analysis.fig2_cdf(t)
            for t in RELAY_TYPE_ORDER
            if analysis.fig2_cdf(t)
        }
        if series:
            print()
            print(render_cdf(series, x_label="improvement (ms)"))
        sys.stdout.flush()
    _report(params, spans, time.perf_counter())


def mode_campaign_verify(params: dict) -> None:
    """Recompute the campaign in memory and compare it with the artifact
    and with what the analyze process printed."""
    from checks import artifact_problems
    from repro.core.campaign import MeasurementCampaign
    from repro.core.io import load_result

    world = _campaign_world(params)
    in_memory = MeasurementCampaign(world, _campaign_config(params)).run()
    reloaded = load_result(params["artifact"])
    with open(params["analyze_stdout"], encoding="utf-8") as fh:
        printed = fh.read()
    problems = artifact_problems(in_memory, reloaded, printed)
    _report(params, Spans(), time.perf_counter(), problems=problems)


# ---------------------------------------------------------------- sweep
def _sweep_world_config(params: dict):
    from repro.scenarios import get_scenario, scenario_with

    return scenario_with(
        get_scenario("baseline"),
        rounds=params["rounds"],
        countries=params["countries"],
        max_countries=params["max_countries"],
    ).world


def mode_cache_fill(params: dict) -> None:
    """Fixture: capture world snapshots for the sweep's seeds."""
    from repro.world import build_world

    config = _sweep_world_config(params)
    for seed in params["seeds"]:
        world = build_world(seed=seed, config=config, world_cache=params["cache"])
        world.ensure_routing_fabric()
    _report(params, Spans(), time.perf_counter())


def mode_sweep(params: dict) -> None:
    """``repro sweep --seeds ... --rounds R --max-countries M --workers W
    --world-cache DIR --out PATH``, call by call."""
    spans = Spans()
    with spans("import"):
        from repro import cli  # noqa: F401
        from repro.core.sweep import SweepRequest, run_sweep
    _enable_obs(params)
    with spans("sweep.run"):
        request = SweepRequest.from_scenario(
            ("baseline",),
            seeds=tuple(params["seeds"]),
            rounds=params["rounds"],
            countries=params["countries"],
            max_countries=params["max_countries"],
            workers=params["workers"],
            world_cache=params["cache"],
            use_world_cache=True,
        )
        result = run_sweep(request)
    with spans("io.sweep_out"):
        artifact = result.as_dict()
        with open(params["out"], "w", encoding="utf-8") as fh:
            json.dump(artifact, fh, indent=2)
            fh.write("\n")
        for name, section in artifact["scenarios"].items():
            verdict = section["expectations"]
            print(f"{name + ' paper shapes':>36}: {'ok' if verdict['ok'] else 'FAILED'}")
        print(f"wrote {len(artifact['per_seed'])} campaign summaries to {params['out']}")
    _report(params, spans, time.perf_counter())


def _noop(index: int) -> int:
    return index


def mode_sweep_setup(params: dict) -> None:
    """The warm sweep's set-up: import, pool start, one snapshot restore."""
    spans = Spans()
    with spans("import"):
        from concurrent.futures import ProcessPoolExecutor

        from repro import cli  # noqa: F401
        from repro.core.sweep import SweepRequest, run_sweep  # noqa: F401
        from repro.world import build_world
    with spans("pool.start"):
        pool = ProcessPoolExecutor(max_workers=params["workers"])
        list(pool.map(_noop, range(params["workers"])))
    with spans("worldcache.restore"):
        world = build_world(
            seed=params["seeds"][0],
            config=_sweep_world_config(params),
            world_cache=params["cache"],
        )
        world.ensure_routing_fabric()
    t_setup = time.perf_counter()
    pool.shutdown()
    _report(params, spans, t_setup, t_setup=t_setup)


# -------------------------------------------------------------- serving
def _replay(service, pools, dark, seconds: float, spans: Spans):
    """Closed-loop replay of one query pool: one caller, batch after batch.

    Cycles over ``pools`` (batches of (src, dst) codes) until at least
    one full pass is done and ``seconds`` have passed, stopping at a pass
    boundary.  Returns per-batch latencies, per-pass walls, the answers
    digest and tier mix of the first pass, failures and the client's own
    time (everything between one answer and the next send).
    """
    import numpy as np

    from checks import dark_answer_count, new_digest, update_digest
    from repro.core.types import RelayType
    from repro.errors import ServiceError

    src, dst = pools
    num = src.shape[0]
    digest = new_digest()
    tiers = np.zeros(3, np.int64)
    latencies: list[float] = []
    pass_walls: list[float] = []
    client = 0.0
    failed = i = 0
    start = pass_start = time.perf_counter()
    deadline = start + seconds
    while True:
        b = i % num
        sent = time.perf_counter()
        try:
            batch = service.route_many(src[b], dst[b], RelayType.COR, K)
        except ServiceError:
            batch = None
        done = time.perf_counter()
        latencies.append(done - sent)
        if batch is None:
            failed += int(src[b].shape[0])
        else:
            if i < num:
                update_digest(digest, batch.relay_ids, batch.tier)
                tiers += np.bincount(batch.tier, minlength=3)
            if dark is not None:
                failed += dark_answer_count(batch.relay_ids, dark)
        i += 1
        if i % num == 0:
            now = time.perf_counter()
            pass_walls.append(now - pass_start)
            pass_start = now
            if now >= deadline:
                client += now - done
                break
        client += time.perf_counter() - done
    end = time.perf_counter()
    spans.rows.append(("replay", start, end))
    return {
        "latencies": latencies,
        "pass_walls": pass_walls,
        "digest": digest.hexdigest(),
        "tiers": tiers.tolist(),
        "queries": i * BATCH,
        "failed": failed,
        "client_s": client,
        "wall_s": end - start,
    }


def mode_serve_fixture(params: dict) -> None:
    """Fixture: full-world campaign, a freshly compiled service, its
    snapshot, the query pool and the fresh service's answers digest."""
    import numpy as np

    from checks import new_digest, update_digest
    from repro.core.campaign import MeasurementCampaign
    from repro.core.config import CampaignConfig
    from repro.core.types import RelayType
    from repro.service.loadgen import LoadgenConfig, QueryStream
    from repro.service.service import ShortcutService

    world = _campaign_world(params)
    config = CampaignConfig(num_rounds=params["rounds"])
    result = MeasurementCampaign(world, config).run()
    fresh = ShortcutService.from_campaign(result, k=K)
    fresh.save(params["snapshot"])
    load = LoadgenConfig(
        num_queries=params["pool_batches"] * BATCH,
        batch_size=BATCH,
        zipf_exponent=1.1,
        seed=params["stream_seed"],
        k=K,
    )
    src, dst = QueryStream(fresh.directory, load).generate()
    src = src.reshape(-1, BATCH)
    dst = dst.reshape(-1, BATCH)
    np.save(params["pool_src"], src)
    np.save(params["pool_dst"], dst)
    digest = new_digest()
    for s, d in zip(src, dst):
        batch = fresh.route_many(s, d, RelayType.COR, K)
        update_digest(digest, batch.relay_ids, batch.tier)
    stats = fresh.stats()
    _report(
        params,
        Spans(),
        time.perf_counter(),
        digest=digest.hexdigest(),
        endpoints=stats.get("endpoints"),
        countries=len(fresh.directory.countries()),
    )


def mode_serve_read(params: dict) -> None:
    """Restore the service from its snapshot and replay the pool."""
    spans = Spans()
    with spans("import"):
        import numpy as np

        from repro.service.service import ShortcutService
    _enable_obs(params)
    with spans("service.load"):
        service = ShortcutService.load(params["snapshot"])
    t_setup = time.perf_counter()
    with spans("fixture.load"):
        pools = (np.load(params["pool_src"]), np.load(params["pool_dst"]))
    if params.get("setup_only"):
        _report(params, spans, t_setup, t_setup=t_setup)
        return
    replay = _replay(service, pools, None, params["seconds"], spans)
    t_end = time.perf_counter()
    _report(
        params,
        spans,
        t_end,
        t_setup=t_setup,
        replays=[replay],
        degradation=service.degradation_summary(),
    )


def mode_churn_fixture(params: dict) -> None:
    """Fixture: the relay-outage campaign on the full world, its rounds,
    the dark-relay masks, per-round query pools and the answers digests
    of an in-process ShortcutService fed the same ingests."""
    import numpy as np

    from checks import new_digest, update_digest
    from repro.core.campaign import MeasurementCampaign
    from repro.core.types import RelayType
    from repro.scenarios import get_scenario, scenario_with
    from repro.service.loadgen import LoadgenConfig, QueryStream, country_rank_order
    from repro.service.service import ShortcutService
    from repro.world import build_world

    scenario = scenario_with(
        get_scenario("relay-outage"), rounds=params["rounds"], countries=params["countries"]
    )
    world = build_world(
        seed=params["world_seed"],
        config=scenario.world,
        world_cache=None,
        use_world_cache=False,
    )
    campaign = MeasurementCampaign(world, scenario.campaign)
    result = campaign.run()
    timeline = campaign.timeline
    node_ids = np.array([record.node_id for record in result.registry], dtype=np.str_)
    reference = ShortcutService.empty(
        max_rounds=params["max_rounds"],
        liveness_rounds=params["liveness_rounds"],
        k=K,
    )
    rounds, dark, pools, digests = [], [], [], []
    for rnd in result.rounds:
        rounds.append(rnd.table.to_payload())
        reference.ingest_round(rnd)
        if rnd.round_index == 0:
            continue
        absent = np.array(sorted(timeline.absent_ids(rnd.round_index)), dtype=np.str_)
        dark.append(np.isin(node_ids, absent))
        weights = timeline.traffic_multipliers(
            rnd.round_index, country_rank_order(reference.directory)
        )
        load = LoadgenConfig(
            num_queries=params["pool_batches"] * BATCH,
            batch_size=BATCH,
            zipf_exponent=1.1,
            seed=params["stream_seed"] * 100_003 + rnd.round_index,
            k=K,
            country_weights=weights or None,
        )
        src, dst = QueryStream(reference.directory, load).generate()
        src, dst = src.reshape(-1, BATCH), dst.reshape(-1, BATCH)
        pools.append((src, dst))
        digest = new_digest()
        for s, d in zip(src, dst):
            batch = reference.route_many(s, d, RelayType.COR, K)
            update_digest(digest, batch.relay_ids, batch.tier)
        digests.append(digest.hexdigest())
    with open(params["fixture"], "wb") as fh:
        pickle.dump({"rounds": rounds, "dark": dark, "pools": pools}, fh)
    _report(
        params,
        Spans(),
        time.perf_counter(),
        digests=digests,
        dark_relays=[int(mask.sum()) for mask in dark],
    )


def mode_serve_churn(params: dict) -> None:
    """A 2-worker cluster ingests rounds 1.. one by one (snapshot swap)
    and the closed-loop client replays each round's pool after it."""
    spans = Spans()
    with spans("import"):
        from repro.core.table import ObservationTable
        from repro.service.cluster import ClusterService
        from repro.service.service import ShortcutService
    _enable_obs(params)
    with spans("fixture.load"):
        with open(params["fixture"], "rb") as fh:
            fixture = pickle.load(fh)
        tables = [ObservationTable.from_payload(p) for p in fixture["rounds"]]
    with spans("cluster.start"):
        master = ShortcutService.empty(
            max_rounds=params["max_rounds"],
            liveness_rounds=params["liveness_rounds"],
            k=K,
        )
        master.ingest_round(tables[0])
        cluster = ClusterService.from_service(master, workers=params["workers"])
    t_setup = time.perf_counter()
    try:
        if params.get("setup_only"):
            _report(params, spans, t_setup, t_setup=t_setup)
            return
        replays, ingests = [], []
        per_round = params["seconds"] / len(fixture["pools"])
        for table, dark, pools in zip(tables[1:], fixture["dark"], fixture["pools"]):
            with spans("ingest"):
                cluster.ingest_round(table)
            ingests.append(spans.rows[-1][2] - spans.rows[-1][1])
            replays.append(_replay(cluster, pools, dark, per_round, spans))
        t_end = time.perf_counter()
        scale_out = cluster.scale_out_summary()
        degradation = cluster.degradation_summary()
        _report(
            params,
            spans,
            t_end,
            t_setup=t_setup,
            replays=replays,
            ingests=ingests,
            scale_out=scale_out,
            degradation=degradation,
        )
    finally:
        cluster.close()


MODES = {
    "campaign": mode_campaign,
    "analyze": mode_analyze,
    "campaign-verify": mode_campaign_verify,
    "cache-fill": mode_cache_fill,
    "sweep": mode_sweep,
    "sweep-setup": mode_sweep_setup,
    "serve-fixture": mode_serve_fixture,
    "serve-read": mode_serve_read,
    "churn-fixture": mode_churn_fixture,
    "serve-churn": mode_serve_churn,
}


if __name__ == "__main__":
    MODES[sys.argv[1]](json.loads(sys.argv[2]))
