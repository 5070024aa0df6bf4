"""The four workloads: fixtures, timed runs, checks and metric assembly.

Each workload is a function ``(runner, seed, seconds, traced) -> Outcome``.
Untraced, it returns every end-to-end figure of the workload; traced, it
spends half of ``seconds`` on an untraced measurement (the end-to-end
figures the per-layer view is read against, and the base of
``trace_overhead_s``) and half on a traced one, which yields the
per-layer metrics.  Fixture preparation (world-cache fill, serving
snapshot, relay-outage campaign) runs before any timing and is excluded
from every metric.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, quantiles

from checks import digest_problems, sweep_problems

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

ROUNDS = 6
#: Worlds one campaign-cold run cycles through, so that a run's medians
#: average over world-to-world differences in size.
CAMPAIGN_WORLDS = 6
SWEEP_SEEDS = 4
#: The development world: the serving workloads serve its directory
#: (131 endpoints, 70 countries at 6 rounds) and ``--seed`` draws their
#: query streams.
DEV_WORLD = 11
WORKERS = 2
CHURN_MAX_ROUNDS = 3
CHURN_LIVENESS_ROUNDS = 1
BATCH = 1024


@dataclass(frozen=True)
class Size:
    """Input sizes of the workloads."""

    countries: int | None
    """World country limit (None = the full world)."""

    max_countries: int | None
    """Endpoint countries sampled per campaign round.  Every full world
    covers more eyeball countries than 48 (56 to 76 over seeds 0-39), so
    every seed measures the same 1,128 endpoint pairs per round;
    uncapped, the pair count follows the world (1,711 to 2,415 per
    round) and so does every campaign timing."""

    serve_pool_batches: int
    """Batches in the serve-read query pool (one pass = one wall_s)."""

    churn_pool_batches: int
    """Batches in each serve-churn round's query pool."""

    campaign_worlds: tuple[int, ...] | None = None
    """Fixed campaign-cold worlds (None = derived from ``--seed``)."""


SIZES = {
    "full": Size(None, 48, serve_pool_batches=1024, churn_pool_batches=256),
    # the configuration the ROADMAP's baseline numbers were taken on:
    # world 11, every eyeball country in every round
    "roadmap": Size(
        None, None, serve_pool_batches=1024, churn_pool_batches=256, campaign_worlds=(11,)
    ),
    "tiny": Size(8, None, serve_pool_batches=8, churn_pool_batches=4),
}

#: Layer metrics reported as zero when the workload does not exercise
#: the layer; filled in by each workload's traced run.
PER_LAYER = (
    "interp_start_s", "import_s", "world.build_s", "worldcache.restore_s",
    "worldcache.hits", "worldcache.misses", "routing.fabric_s",
    "campaign.round_s", "campaign.sampling_s", "campaign.pair_grid_s",
    "campaign.measure_direct_s", "campaign.feasibility_s",
    "campaign.measure_legs_s", "campaign.stitch_s", "campaign.pings",
    "campaign.pairs", "io.save_s", "io.save_mb", "io.load_s", "analysis.s",
    "sweep.run_s", "sweep.per_seed_p50_s", "sweep.pool_busy_frac",
    "service.load_s", "service.route_many_s", "service.batches",
    "service.tier_pair", "service.tier_country", "service.tier_direct",
    "directory.ingest_s", "service.candidates_evicted",
    "service.stale_top_answers", "service.fallback_country",
    "service.unanswerable", "cluster.start_s", "cluster.swap_s",
    "cluster.front_cpu_s", "cluster.front_wait_s", "cluster.worker_busy_max_s",
    "process.exit_s", "client_s", "fixture_load_s", "traced_wall_s", "unattributed_s",
    "unattributed_frac", "trace_overhead_s", "analyze_s", "artifact_mb",
    "qps", "latency_p50_ms", "latency_p99_ms", "latency_samples", "ingest_s",
    "failed_frac",
)


class BenchError(RuntimeError):
    """A measured process failed or overran the run's deadline."""


@dataclass
class Child:
    """One finished child process, timed from outside."""

    mode: str
    t_spawn: float
    t_exit: float
    report: dict
    stdout: str

    @property
    def wall(self) -> float:
        return self.t_exit - self.t_spawn

    def span(self, name: str) -> float:
        """Total duration of the benchmark spans called ``name``."""
        return sum(end - start for n, start, end in self.report["spans"] if n == name)

    @property
    def interp(self) -> float:
        """Spawn to the first statement of the child program."""
        return self.report["t_top"] - self.t_spawn

    @property
    def exit(self) -> float:
        """The child's last statement to its exit (interpreter teardown)."""
        return self.t_exit - self.report["t_end"]

    def obs_total(self, name: str) -> float:
        timings = (self.report.get("obs") or {}).get("timings", {})
        return timings[name][1] if name in timings else 0.0

    def obs_count(self, name: str) -> int:
        return (self.report.get("obs") or {}).get("counters", {}).get(name, 0)


class Runner:
    """Spawns ``child.py`` modes in the run's work directory."""

    def __init__(self, work: Path, env: dict, deadline: float, size: Size) -> None:
        self.work = work
        self.size = size
        self.env = env
        self.deadline = deadline
        self._serial = 0

    def path(self, name: str) -> str:
        return str(self.work / name)

    def start(self, mode: str, params: dict):
        self._serial += 1
        tag = f"{self._serial:03d}-{mode}"
        params = dict(params, report=self.path(f"{tag}.report.json"))
        out = open(self.path(f"{tag}.out"), "w+", encoding="utf-8")
        err = open(self.path(f"{tag}.err"), "w+", encoding="utf-8")
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), mode, json.dumps(params)],
            cwd=str(ROOT),
            env=self.env,
            stdout=out,
            stderr=err,
        )
        return (mode, params, proc, out, err, t_spawn)

    def wait(self, handle) -> Child:
        mode, params, proc, out, err, t_spawn = handle
        try:
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError(f"{mode}: overran the run deadline") from None
            t_exit = time.perf_counter()
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
        finally:
            out.close()
            err.close()
        if code != 0:
            raise BenchError(f"{mode} exited {code}:\n{stderr[-3000:]}")
        with open(params["report"], encoding="utf-8") as fh:
            report = json.load(fh)
        return Child(mode, t_spawn, t_exit, report, stdout)

    def run(self, mode: str, params: dict) -> Child:
        return self.wait(self.start(mode, params))

    def bare_interpreter(self, count: int) -> list[float]:
        """Spawn-to-exit walls of ``python -c pass``."""
        walls = []
        for _ in range(count):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], env=self.env, check=True)
            walls.append(time.perf_counter() - start)
        return walls


@dataclass
class Outcome:
    """What one workload run measured."""

    e2e: dict[str, float]
    layers: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    accounting: list[tuple[str, float]] = field(default_factory=list)


def _until(
    seconds: float, iteration, traced: bool, minimum: int = 1
) -> tuple[list, list]:
    """Run ``iteration(i, trace)`` until ``seconds`` passed.

    Untraced, every iteration is untraced and at least ``minimum`` run.
    Traced, untraced and traced iterations alternate (at least one of
    each), so drift in the host's speed lands on both sides of
    ``trace_overhead_s`` alike.  Returns the untraced and the traced
    results.
    """
    modes = (False, True) if traced else (False,)
    runs: tuple[list, list] = ([], [])
    start = time.perf_counter()
    i = 0
    floor = len(modes) if traced else minimum
    while i < floor or time.perf_counter() - start < seconds:
        trace = modes[i % len(modes)]
        runs[trace].append(iteration(i, trace))
        i += 1
    return runs


def _account(layers: dict, wall: float, parts: list[tuple[str, float]]) -> list:
    """Top-level spans plus the unattributed remainder of a traced wall."""
    unattributed = wall - sum(value for _, value in parts)
    layers["traced_wall_s"] = wall
    layers["unattributed_s"] = unattributed
    layers["unattributed_frac"] = unattributed / wall
    return parts + [("unattributed", unattributed), ("traced wall", wall)]


def _layers() -> dict[str, float]:
    return {name: 0 for name in PER_LAYER}


def _file_digest(path: str) -> str:
    digest = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _serving_latency(latencies: list[float]) -> dict[str, float]:
    percentiles = quantiles(latencies, n=100)
    return {
        "latency_p50_ms": 1000 * percentiles[49],
        "latency_p99_ms": 1000 * percentiles[98],
        "latency_samples": len(latencies),
    }


# --------------------------------------------------------- campaign-cold
#: Untraced, every ANALYZE_EVERY-th campaign iteration is followed by an
#: analyze process, so a run holds more campaign samples (the wall_s and
#: setup_s figures) than analyze ones.
ANALYZE_EVERY = 2


def campaign_cold(runner: Runner, seed: int, seconds: float, traced: bool) -> Outcome:
    worlds = list(
        runner.size.campaign_worlds or (seed * 8 + j for j in range(CAMPAIGN_WORLDS))
    )
    base = {
        "rounds": ROUNDS,
        "countries": runner.size.countries,
        "max_countries": runner.size.max_countries,
    }
    digests: dict[int, set] = {}

    def iteration(i, trace):
        # traced, an untraced and a traced iteration share each world
        world = worlds[(i // 2 if traced else i) % len(worlds)]
        artifact = runner.path(f"result-{i}.json")
        camp = runner.run("campaign", dict(base, world_seed=world, out=artifact, trace=trace))
        digests.setdefault(world, set()).add(_file_digest(artifact))
        if trace or i % ANALYZE_EVERY == 0:
            ana = runner.run("analyze", {"artifact": artifact, "trace": trace})
            return camp, ana, artifact, world
        os.remove(artifact)
        return camp, None, artifact, world

    plain, traced_runs = _until(seconds, iteration, traced, minimum=len(worlds))
    analyzed = [run for run in plain if run[1] is not None]
    outcome = Outcome(
        e2e={
            "wall_s": median(run[0].wall for run in plain),
            "setup_s": median(run[0].report["t_setup"] - run[0].t_spawn for run in plain),
            "analyze_s": median(run[1].wall for run in analyzed),
            "peak_rss_mb": max(
                median(run[0].report["peak_rss_mb"] for run in plain),
                median(run[1].report["peak_rss_mb"] for run in analyzed),
            ),
            "artifact_mb": median(run[0].report["artifact_bytes"] for run in plain) / 1e6,
        },
        attempted=len(plain) + len(analyzed) + 2 * len(traced_runs),
        notes=[
            f"{len(plain)} campaign and {len(analyzed)} analyze commands "
            f"over worlds {worlds}"
        ],
    )
    outcome.digests = {f"artifact world {w}": sorted(d)[0] for w, d in digests.items()}
    repeated = {world: d for world, d in digests.items() if len(d) != 1}
    if repeated:
        outcome.problems.append(f"campaign artifacts of one world differ: {repeated}")
    outcome.problems += _campaign_verify(runner, base, plain + traced_runs, analyzed[-1])
    if not traced:
        return outcome
    camp, ana, _, _ = traced_runs[-1]
    layers = _layers()
    layers["import_s"] = camp.span("import")
    layers["world.build_s"] = camp.span("world.build")
    layers["routing.fabric_s"] = camp.span("routing.fabric")
    layers["worldcache.hits"] = camp.obs_count("world.cache.hits")
    layers["worldcache.misses"] = camp.obs_count("world.cache.misses")
    _campaign_phases(layers, camp)
    layers["io.save_s"] = camp.span("io.save")
    layers["io.save_mb"] = camp.report["artifact_bytes"] / 1e6
    layers["io.load_s"] = ana.span("io.load")
    layers["analysis.s"] = ana.span("analysis")
    layers["process.exit_s"] = camp.exit + ana.exit
    layers["trace_overhead_s"] = median(c.wall + a.wall for c, a, _, _ in traced_runs) - (
        outcome.e2e["wall_s"] + outcome.e2e["analyze_s"]
    )
    outcome.accounting = _account(
        layers,
        camp.wall + ana.wall,
        [
            ("campaign: interpreter start", camp.interp),
            ("campaign: import", camp.span("import")),
            ("world.build", camp.span("world.build")),
            ("routing.fabric", camp.span("routing.fabric")),
            ("campaign rounds", camp.span("campaign")),
            ("io.save", camp.span("io.save")),
            ("campaign: exit", camp.exit),
            ("analyze: interpreter start", ana.interp),
            ("analyze: import", ana.span("import")),
            ("io.load", ana.span("io.load")),
            ("analysis", ana.span("analysis")),
            ("analyze: exit", ana.exit),
        ],
    )
    outcome.layers = layers
    return outcome


def _campaign_phases(layers: dict, camp: Child) -> None:
    for phase in (
        "round", "sampling", "pair_grid", "measure_direct", "feasibility",
        "measure_legs", "stitch",
    ):
        layers[f"campaign.{phase}_s"] = camp.obs_total(f"campaign.{phase}")
    layers["campaign.pings"] = camp.obs_count("campaign.pings")
    layers["campaign.pairs"] = camp.obs_count("campaign.pairs")


def _campaign_verify(runner, base, runs, analyzed) -> list[str]:
    """Every round sampled the capped endpoint count, and the artifact
    and the analyze output agree with an in-memory campaign."""
    problems = []
    cap = base["max_countries"]
    for camp, *_ in runs:
        if cap is not None and set(camp.report["endpoints_per_round"]) != {cap}:
            problems.append(
                f"rounds measured {camp.report['endpoints_per_round']} endpoints, "
                f"not {cap}: the world covers too few countries"
            )
            break
    _, ana, artifact, world = analyzed
    stdout_path = runner.path("analyze-stdout.txt")
    with open(stdout_path, "w", encoding="utf-8") as fh:
        fh.write(ana.stdout)
    verdict = runner.run(
        "campaign-verify",
        dict(base, world_seed=world, artifact=artifact, analyze_stdout=stdout_path),
    )
    return problems + verdict.report["problems"]


# ------------------------------------------------------------ sweep-warm
def sweep_warm(runner: Runner, seed: int, seconds: float, traced: bool) -> Outcome:
    seeds = list(range(seed, seed + SWEEP_SEEDS))
    cache = runner.path("worldcache")
    base = {
        "seeds": seeds,
        "rounds": ROUNDS,
        "countries": runner.size.countries,
        "max_countries": runner.size.max_countries,
        "workers": WORKERS,
        "cache": cache,
    }
    half = len(seeds) // 2
    fills = [
        runner.start("cache-fill", dict(base, seeds=part))
        for part in (seeds[:half], seeds[half:])
    ]
    for handle in fills:
        runner.wait(handle)
    snapshots = {p: os.stat(os.path.join(cache, p)).st_mtime_ns for p in os.listdir(cache)}

    def iteration(i, trace):
        out = runner.path(f"sweep-{i}.json")
        child = runner.run("sweep", dict(base, out=out, trace=trace))
        with open(out, encoding="utf-8") as fh:
            return child, json.load(fh)

    plain, traced_runs = _until(seconds, iteration, traced)
    runs = plain + traced_runs
    outcome = Outcome(
        e2e={
            "wall_s": median(c.wall for c, _ in plain),
            "peak_rss_mb": median(c.report["peak_rss_mb"] for c, _ in plain),
        },
        notes=[f"{len(plain)} untraced sweeps of {len(seeds)} seeds"],
    )
    if not traced:
        probes = [runner.run("sweep-setup", base) for _ in range(5)]
        outcome.e2e["setup_s"] = median(p.report["t_setup"] - p.t_spawn for p in probes)
    else:
        sweep = traced_runs[-1][0]
        layers = _layers()
        layers["import_s"] = sweep.span("import")
        layers["world.build_s"] = sweep.obs_total("world.build")
        layers["worldcache.restore_s"] = sweep.obs_total(
            "world.cache.load"
        ) + sweep.obs_total("world.restore")
        layers["worldcache.hits"] = sweep.obs_count("world.cache.hits")
        layers["worldcache.misses"] = sweep.obs_count("world.cache.misses")
        layers["routing.fabric_s"] = sweep.obs_total("world.fabric")
        _campaign_phases(layers, sweep)
        per_seed = [sweep.obs_total(f"sweep.seed baseline:{s}") for s in seeds]
        run_s = sweep.span("sweep.run")
        layers["sweep.run_s"] = run_s
        layers["sweep.per_seed_p50_s"] = median(per_seed)
        layers["sweep.pool_busy_frac"] = sum(per_seed) / (WORKERS * run_s)
        layers["process.exit_s"] = sweep.exit
        layers["trace_overhead_s"] = (
            median(c.wall for c, _ in traced_runs) - outcome.e2e["wall_s"]
        )
        outcome.accounting = _account(
            layers,
            sweep.wall,
            [
                ("interpreter start", sweep.interp),
                ("import", sweep.span("import")),
                ("sweep.run", run_s),
                ("artifact write", sweep.span("io.sweep_out")),
                ("exit", sweep.exit),
            ],
        )
        if layers["worldcache.hits"] != len(seeds) or layers["worldcache.misses"]:
            outcome.problems.append(
                f"world cache: {layers['worldcache.hits']} hits, "
                f"{layers['worldcache.misses']} misses for {len(seeds)} seeds"
            )
        outcome.layers = layers
    after = {p: os.stat(os.path.join(cache, p)).st_mtime_ns for p in os.listdir(cache)}
    if after != snapshots:
        outcome.problems.append("the sweep rewrote the world cache: it missed")
    outcome.problems += sweep_problems([artifact for _, artifact in runs])
    deterministic = {k: v for k, v in runs[0][1].items() if k != "timing"}
    outcome.digests["sweep deterministic section"] = hashlib.blake2b(
        json.dumps(deterministic, sort_keys=True).encode(), digest_size=16
    ).hexdigest()
    outcome.attempted = len(seeds) * len(runs)
    return outcome


# ------------------------------------------------------------ serve-read
def serve_read(runner: Runner, seed: int, seconds: float, traced: bool) -> Outcome:
    base = {
        "snapshot": runner.path("service.npz"),
        "pool_src": runner.path("pool-src.npy"),
        "pool_dst": runner.path("pool-dst.npy"),
    }
    fixture = runner.run(
        "serve-fixture",
        dict(
            base,
            world_seed=DEV_WORLD,
            stream_seed=seed,
            rounds=ROUNDS,
            countries=runner.size.countries,
            pool_batches=runner.size.serve_pool_batches,
        ),
    )
    expected = [fixture.report["digest"]]
    digests = {"answers (fresh compile)": expected[0]}
    notes = [
        f"directory: {fixture.report['endpoints']} endpoints, "
        f"{fixture.report['countries']} countries"
    ]

    def measure(budget, trace):
        return runner.run("serve-read", dict(base, seconds=budget, trace=trace))

    plain = measure(seconds / 2 if traced else seconds, False)
    outcome = _serving_e2e(plain, notes)
    outcome.digests = digests
    outcome.problems += digest_problems(
        "serve-read", [r["digest"] for r in plain.report["replays"]], expected
    )
    if not traced:
        probes = [runner.run("serve-read", dict(base, setup_only=True)) for _ in range(6)]
        outcome.e2e["setup_s"] = median(
            [c.report["t_setup"] - c.t_spawn for c in [plain] + probes]
        )
        return outcome
    child = measure(seconds / 2, True)
    outcome.problems += digest_problems(
        "serve-read traced", [r["digest"] for r in child.report["replays"]], expected
    )
    layers = _serving_layers(child, outcome)
    layers["service.load_s"] = child.span("service.load")
    outcome.accounting = _account(
        layers,
        child.report["t_end"] - child.t_spawn,
        [
            ("interpreter start", child.interp),
            ("import", child.span("import")),
            ("service.load", child.span("service.load")),
            ("fixture load", child.span("fixture.load")),
            ("route_many", layers["service.route_many_s"]),
            ("client", layers["client_s"]),
        ],
    )
    outcome.layers = layers
    return outcome


def _serving_e2e(child: Child, notes: list[str]) -> Outcome:
    replays = child.report["replays"]
    latencies = [x for r in replays for x in r["latencies"]]
    queries = sum(r["queries"] for r in replays)
    failed = sum(r["failed"] for r in replays)
    e2e = {
        "wall_s": _unit_wall(child),
        "peak_rss_mb": child.report["peak_rss_mb"],
        "qps": queries / sum(r["wall_s"] for r in replays),
        **_serving_latency(latencies),
        "failed_frac": failed / queries,
    }
    if "ingests" in child.report:
        e2e["ingest_s"] = sum(child.report["ingests"])
    return Outcome(
        e2e=e2e,
        attempted=queries,
        failed=failed,
        notes=notes + [f"{len(latencies)} route_many batches of {BATCH} queries, closed loop"],
    )


def _unit_wall(child: Child) -> float:
    """serve-read: the median pass over the query pool; serve-churn: one
    churn step, the median ingest plus the median pass over a round's
    pool."""
    passes = median(w for r in child.report["replays"] for w in r["pass_walls"])
    if "ingests" not in child.report:
        return passes
    return median(child.report["ingests"]) + passes


def _serving_layers(child: Child, outcome: Outcome) -> dict[str, float]:
    layers = _layers()
    replays = child.report["replays"]
    route_many = sum(sum(r["latencies"]) for r in replays)
    layers["import_s"] = child.span("import")
    layers["fixture_load_s"] = child.span("fixture.load")
    layers["service.route_many_s"] = route_many
    layers["service.batches"] = sum(len(r["latencies"]) for r in replays)
    for index, tier in enumerate(("pair", "country", "direct")):
        layers[f"service.tier_{tier}"] = sum(r["tiers"][index] for r in replays)
    layers["client_s"] = sum(r["client_s"] for r in replays)
    for name, value in (child.report.get("degradation") or {}).items():
        if f"service.{name}" in layers:
            layers[f"service.{name}"] = value
    layers["trace_overhead_s"] = _unit_wall(child) - outcome.e2e["wall_s"]
    return layers


# ----------------------------------------------------------- serve-churn
def serve_churn(runner: Runner, seed: int, seconds: float, traced: bool) -> Outcome:
    base = {
        "fixture": runner.path("churn-fixture.pkl"),
        "workers": WORKERS,
        "max_rounds": CHURN_MAX_ROUNDS,
        "liveness_rounds": CHURN_LIVENESS_ROUNDS,
    }
    fixture = runner.run(
        "churn-fixture",
        dict(
            base,
            world_seed=DEV_WORLD,
            stream_seed=seed,
            rounds=ROUNDS,
            countries=runner.size.countries,
            pool_batches=runner.size.churn_pool_batches,
        ),
    )
    expected = fixture.report["digests"]
    notes = [f"dark relays per replayed round: {fixture.report['dark_relays']}"]

    def measure(budget, trace):
        return runner.run("serve-churn", dict(base, seconds=budget, trace=trace))

    plain = measure(seconds / 2 if traced else seconds, False)
    outcome = _serving_e2e(plain, notes)
    outcome.digests = {
        f"answers round {r} (in-process)": d for r, d in enumerate(expected, start=1)
    }
    cpu_clock = plain.report["scale_out"]["aggregate_queries_per_s"]
    outcome.notes.append(
        f"cluster CPU-clock aggregate_queries_per_s {cpu_clock} vs "
        f"{outcome.e2e['qps']:.0f} queries per wall-clock second"
    )
    outcome.problems += digest_problems(
        "serve-churn", [r["digest"] for r in plain.report["replays"]], expected
    )
    if not traced:
        probes = [runner.run("serve-churn", dict(base, setup_only=True)) for _ in range(4)]
        outcome.e2e["setup_s"] = median(
            [_churn_setup(c) for c in [plain] + probes]
        )
        return outcome
    child = measure(seconds / 2, True)
    outcome.problems += digest_problems(
        "serve-churn traced", [r["digest"] for r in child.report["replays"]], expected
    )
    layers = _serving_layers(child, outcome)
    scale_out = child.report["scale_out"]
    layers["cluster.start_s"] = child.span("cluster.start")
    layers["cluster.swap_s"] = child.obs_total("cluster.snapshot_swap")
    layers["directory.ingest_s"] = child.obs_total("service.directory.ingest")
    layers["cluster.front_cpu_s"] = scale_out["front_cpu_s"]
    layers["cluster.front_wait_s"] = layers["service.route_many_s"] - scale_out["front_cpu_s"]
    layers["cluster.worker_busy_max_s"] = scale_out["max_worker_busy_s"]
    outcome.accounting = _account(
        layers,
        child.report["t_end"] - child.t_spawn,
        [
            ("interpreter start", child.interp),
            ("import", child.span("import")),
            ("fixture load", child.span("fixture.load")),
            ("cluster.start", child.span("cluster.start")),
            ("ingest", child.span("ingest")),
            ("route_many", layers["service.route_many_s"]),
            ("client", layers["client_s"]),
        ],
    )
    outcome.layers = layers
    return outcome


def _churn_setup(child: Child) -> float:
    """Import plus cluster start (the fixture load between them excluded)."""
    imported = next(end for name, _, end in child.report["spans"] if name == "import")
    return imported - child.t_spawn + child.span("cluster.start")


WORKLOADS = {
    "campaign-cold": campaign_cold,
    "sweep-warm": sweep_warm,
    "serve-read": serve_read,
    "serve-churn": serve_churn,
}
