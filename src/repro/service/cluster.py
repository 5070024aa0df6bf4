"""The sharded multi-process serving tier.

One :class:`~repro.service.service.ShortcutService` replays ~2M
queries/s on a single core; the "millions of users" architecture needs
more cores and more worlds.  This module provides both halves:

**Cross-world directories.**  :func:`cross_world_service` pools several
campaigns (different world seeds) into one service: relay identities are
unified by node id first (:func:`repro.core.results.unify_relay_identities`),
so the pooled :class:`~repro.core.table.ObservationTable` compiles into
one directory whose relay indices mean the same relay regardless of
which world observed it.

**Sharded serving.**  Compiled lookup lanes are partitioned by a hash of
their canonical *country-pair* key (:func:`shard_of_pair_keys`) into
``num_shards`` segments.  A query's shard is the hash of its endpoints'
country pair — the same key that names its country-tier lane, and the
pair-tier lane of the same two endpoints lands in the same shard by
construction — so every query resolves entirely inside one shard and
sharded answers are byte-identical to the unsharded directory's for any
worker count (asserted in ``tests/test_cluster.py``).

Segments ship as **snapshot v3** (:func:`save_cluster_snapshot`): a
strict superset of the v2 single-process format (same base arrays, so
migration is a load + reshard) plus per-shard compiled lane blocks and a
shard manifest.  ``np.savez`` stores members uncompressed, so
:func:`load_cluster_snapshot` maps each array region straight off disk
(``np.memmap``) — N worker processes share one read-only copy of the
page cache instead of N heap copies.

:class:`ClusterService` is the batching front: it validates each query
batch once, partitions it by shard, writes the partitioned queries into
shared scratch buffers, and coalesces per-shard spans into one
``route_many`` command per worker process; workers write answers back
into shared buffers and the front reassembles them in query order.
Ingest goes through a master directory: fold the round in, write a fresh
v3 snapshot, and broadcast a ``swap`` — workers remap atomically between
serve commands (their command queues are FIFO), so no in-flight batch
ever sees half-new state.

Scale-out accounting is CPU-clock based: each worker reports its busy
time (``time.process_time``) per command, and the front adds its own
partition/reassembly CPU.  ``aggregate_queries_per_s`` is queries over
the *critical path* (front CPU + the busiest worker's CPU) — the
throughput a deployment with one core per process would sustain — which
measures real work division even on a single-core CI box where
wall-clock parallelism is physically impossible.  See
``benchmarks/README.md`` for the protocol.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import shutil
import tempfile
import time
from queue import Empty
from typing import IO, Any

import numpy as np

from repro import obs
from repro.core.results import CampaignResult, RelayRegistry, unify_relay_identities
from repro.core.table import ObservationTable
from repro.core.types import RelayType
from repro.errors import ServiceError
from repro.service.directory import (
    SNAPSHOT_VERSION,
    TIER_COUNTRY,
    TIER_NAMES,
    TIER_PAIR,
    LaneBlock,
    RelayDirectory,
    validate_query_codes,
)
from repro.service.results import DegradationCounters, RouteAnswer, RouteBatch
from repro.service.service import ShortcutService
from repro.util.npz import mmap_npz

__all__ = [
    "CLUSTER_SNAPSHOT_VERSION",
    "NUM_SHARDS",
    "ClusterService",
    "ClusterSnapshot",
    "cross_world_service",
    "load_cluster_snapshot",
    "migrate_snapshot",
    "save_cluster_snapshot",
    "shard_of_pair_keys",
    "shard_of_queries",
    "split_directory_blocks",
]

#: Default shard count.  Fixed independently of the worker count — every
#: worker maps every segment (memmap views are free) and the front
#: assigns whole shards to workers per batch by greedy load balancing —
#: so answers and segment layout never depend on how many processes
#: serve them.
NUM_SHARDS = 16

#: Snapshot format version of the sharded cluster layout (v2 + segments).
CLUSTER_SNAPSHOT_VERSION = SNAPSHOT_VERSION + 1

_pack = ObservationTable.pack_pairs

_TIERS = (TIER_PAIR, TIER_COUNTRY)

#: Per-segment array suffixes, in write order.
_SEGMENT_FIELDS = ("keys", "indptr", "relays", "counts", "red")


# --------------------------------------------------------------------- shards


def shard_of_pair_keys(keys: np.ndarray, num_shards: int) -> np.ndarray:
    """Shard index per canonical country-pair key (splitmix64 finalizer).

    The avalanche mix keeps shards balanced even though packed pair keys
    share long common prefixes (small country codes in the high word).
    """
    x = np.asarray(keys, np.int64).astype(np.uint64)
    x = x ^ (x >> np.uint64(30))
    x = x * np.uint64(0xBF58476D1CE4E5B9)
    x = x ^ (x >> np.uint64(27))
    x = x * np.uint64(0x94D049BB133111EB)
    x = x ^ (x >> np.uint64(31))
    return (x % np.uint64(num_shards)).astype(np.int64)


def shard_of_queries(
    endpoint_cc: np.ndarray,
    src_codes: np.ndarray,
    dst_codes: np.ndarray,
    num_shards: int,
) -> np.ndarray:
    """Owning shard per query: the hash of its endpoints' country pair.

    Unknown endpoints (code -1, or a code whose country was never
    learned) clamp to country 0 — any shard resolves them to the direct
    tier structurally, so the clamp only has to be deterministic.
    """
    src = np.asarray(src_codes, np.int64)
    dst = np.asarray(dst_codes, np.int64)
    scc = endpoint_cc[np.maximum(src, 0)].astype(np.int64)
    dcc = endpoint_cc[np.maximum(dst, 0)].astype(np.int64)
    scc = np.where(src >= 0, scc, -1)
    dcc = np.where(dst >= 0, dcc, -1)
    keys = _pack(np.maximum(scc, 0), np.maximum(dcc, 0))
    return shard_of_pair_keys(keys, num_shards)


def _subset_block(block: LaneBlock, lane_mask: np.ndarray) -> LaneBlock | None:
    """The block restricted to masked lanes (order preserved), or None."""
    if not lane_mask.any():
        return None
    lengths = np.diff(block.indptr)[lane_mask]
    indptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
    total = int(indptr[-1])
    gather = (
        np.repeat(block.indptr[:-1][lane_mask], lengths)
        + np.arange(total)
        - np.repeat(indptr[:-1], lengths)
    )
    return LaneBlock(
        keys=block.keys[lane_mask],
        indptr=indptr,
        relays=block.relays[gather],
        counts=block.counts[gather],
        reduction_ms=block.reduction_ms[gather],
    )


def split_directory_blocks(
    directory: RelayDirectory, num_shards: int
) -> list[dict[tuple[int, int], LaneBlock]]:
    """Partition a directory's compiled blocks into per-shard segments.

    Country-tier lanes shard by their own pair key; pair-tier lanes
    shard by their endpoints' *country* pair — the same mapping
    :func:`shard_of_queries` applies — so a query's pair and country
    lanes always live in its own shard.  Lane order inside each segment
    is the global order restricted to the shard, keeping per-shard
    lookups binary-searchable and answers identical.
    """
    if num_shards < 1:
        raise ServiceError(f"num_shards must be >= 1, got {num_shards}")
    ep_cc = directory.endpoint_country_codes()
    shards: list[dict[tuple[int, int], LaneBlock]] = [
        {} for _ in range(num_shards)
    ]
    from repro.core.types import RELAY_TYPE_ORDER

    for tier in _TIERS:
        for code, relay_type in enumerate(RELAY_TYPE_ORDER):
            block = directory.block(tier, relay_type)
            if block.num_lanes == 0:
                continue
            if tier == TIER_COUNTRY:
                lane_shard = shard_of_pair_keys(block.keys, num_shards)
            else:
                a = (block.keys >> np.int64(32)).astype(np.int64)
                b = (block.keys & np.int64(0xFFFFFFFF)).astype(np.int64)
                keys = _pack(
                    np.maximum(ep_cc[a], 0).astype(np.int64),
                    np.maximum(ep_cc[b], 0).astype(np.int64),
                )
                lane_shard = shard_of_pair_keys(keys, num_shards)
            for shard in np.unique(lane_shard).tolist():
                subset = _subset_block(block, lane_shard == shard)
                if subset is not None:
                    shards[shard][(tier, code)] = subset
    return shards


# ------------------------------------------------------------ snapshot v3


def save_cluster_snapshot(
    source: RelayDirectory | ShortcutService,
    file: str | IO[bytes],
    *,
    num_shards: int = NUM_SHARDS,
) -> None:
    """Write a sharded v3 snapshot: the v2 base layout plus segments.

    Deterministic like v2: fixed array order, constant zip timestamps.
    The base arrays are exactly what :meth:`RelayDirectory.save` writes
    (modulo the ``meta`` version row), so a v3 snapshot can always
    rebuild the full unsharded directory for ingest.
    """
    directory = getattr(source, "directory", source)
    arrays = directory.snapshot_arrays()
    arrays["meta"] = np.asarray(
        [
            CLUSTER_SNAPSHOT_VERSION,
            -1 if directory.max_rounds is None else directory.max_rounds,
            num_shards,
        ],
        np.int64,
    )
    manifest: list[tuple[int, int, int, int, int]] = []
    for shard, blocks in enumerate(split_directory_blocks(directory, num_shards)):
        for tier, code in sorted(blocks):
            block = blocks[(tier, code)]
            manifest.append(
                (shard, tier, code, block.num_lanes, int(block.relays.size))
            )
            prefix = f"s{shard}_t{tier}_{code}"
            arrays[f"{prefix}_keys"] = block.keys
            arrays[f"{prefix}_indptr"] = block.indptr
            arrays[f"{prefix}_relays"] = block.relays
            arrays[f"{prefix}_counts"] = block.counts
            arrays[f"{prefix}_red"] = block.reduction_ms
    arrays["shard_manifest"] = np.asarray(manifest, np.int64).reshape(-1, 5)
    np.savez(file, **arrays)


class ClusterSnapshot:
    """A parsed v3 snapshot: identity arrays plus per-shard segments.

    Arrays may be lazily ``np.memmap``-backed (the worker path) or eager
    (buffer loads); accessors never care which.
    """

    def __init__(self, arrays: dict[str, np.ndarray]) -> None:
        meta = np.asarray(arrays["meta"])
        version = int(meta[0])
        if version == SNAPSHOT_VERSION:
            raise ServiceError(
                f"snapshot version {version} is the single-process format; "
                "migrate it with migrate_snapshot / "
                "ClusterService.from_snapshot"
            )
        if version != CLUSTER_SNAPSHOT_VERSION:
            raise ServiceError(f"unknown snapshot version {version}")
        self._arrays = arrays
        self.max_rounds: int | None = None if int(meta[1]) < 0 else int(meta[1])
        self.num_shards = int(meta[2])
        self._manifest = np.asarray(arrays["shard_manifest"], np.int64)

    @property
    def arrays(self) -> dict[str, np.ndarray]:
        return self._arrays

    def endpoint_country_codes(self) -> np.ndarray:
        return np.asarray(self._arrays["endpoint_cc"]).astype(np.int32)

    def endpoints(self) -> list[str]:
        return np.asarray(self._arrays["endpoints"]).tolist()

    def countries(self) -> list[str]:
        return np.asarray(self._arrays["countries"]).tolist()

    def round_ids(self) -> list[int]:
        return np.asarray(self._arrays["round_ids"]).tolist()

    def relay_last_seen(self) -> dict[int, int]:
        return dict(
            zip(
                np.asarray(self._arrays["relay_seen_ids"]).tolist(),
                np.asarray(self._arrays["relay_seen_rounds"]).tolist(),
            )
        )

    def shard_blocks(self, shard: int) -> dict[tuple[int, int], LaneBlock]:
        """The compiled lane blocks of one shard, possibly memmap-backed."""
        blocks: dict[tuple[int, int], LaneBlock] = {}
        for row in self._manifest:
            if int(row[0]) != shard:
                continue
            tier, code = int(row[1]), int(row[2])
            prefix = f"s{shard}_t{tier}_{code}"
            blocks[(tier, code)] = LaneBlock(
                keys=self._arrays[f"{prefix}_keys"],
                indptr=self._arrays[f"{prefix}_indptr"],
                relays=self._arrays[f"{prefix}_relays"],
                counts=self._arrays[f"{prefix}_counts"],
                reduction_ms=self._arrays[f"{prefix}_red"],
            )
        return blocks

    def segment_service(
        self,
        shard: int,
        *,
        k: int = 3,
        liveness_rounds: int | None = None,
        spill: int = 2,
    ) -> ShortcutService:
        """A queryable service over one shard's segment (worker side).

        Shares the global identity arrays (endpoint countries, relay
        health), so health filtering and validation behave exactly as
        the full directory's.
        """
        view = RelayDirectory.segment_view(
            blocks=self.shard_blocks(shard),
            endpoint_cc=self.endpoint_country_codes(),
            countries=self.countries(),
            round_ids=self.round_ids(),
            relay_last_seen=self.relay_last_seen(),
            max_rounds=self.max_rounds,
        )
        return ShortcutService.from_directory(
            view, k=k, liveness_rounds=liveness_rounds, spill=spill
        )

    def identity_directory(self) -> RelayDirectory:
        """A lanes-free directory view holding only identities (front side)."""
        return RelayDirectory.segment_view(
            blocks={},
            endpoint_cc=self.endpoint_country_codes(),
            endpoints=self.endpoints(),
            countries=self.countries(),
            round_ids=self.round_ids(),
            relay_last_seen=self.relay_last_seen(),
            max_rounds=self.max_rounds,
        )

    def full_directory(self) -> RelayDirectory:
        """Rebuild the complete unsharded directory (the ingest master).

        v3 carries every v2 base array, so this is the v2 load path with
        the segment arrays ignored.
        """
        return RelayDirectory._from_arrays(self._arrays)


def load_cluster_snapshot(
    file: str | IO[bytes], *, mmap: bool = True
) -> ClusterSnapshot:
    """Parse a v3 snapshot, memory-mapping arrays when given a path.

    Raises:
        ServiceError: for v2 snapshots (migrate first) and unknown
            versions.
    """
    if mmap and isinstance(file, (str, os.PathLike)):
        try:
            return ClusterSnapshot(mmap_npz(os.fspath(file)))
        except (ServiceError, OSError, ValueError):
            pass  # compressed / exotic member: fall back to eager load
    with np.load(file) as data:
        arrays = {name: data[name] for name in data.files}
    return ClusterSnapshot(arrays)


def migrate_snapshot(
    src: str | IO[bytes],
    dst: str | IO[bytes],
    *,
    num_shards: int = NUM_SHARDS,
) -> None:
    """Rewrite a v2 single-process snapshot as a sharded v3 snapshot."""
    save_cluster_snapshot(RelayDirectory.load(src), dst, num_shards=num_shards)


# ----------------------------------------------------------------- workers


def _build_shard_services(
    snapshot_path: str,
    shard_ids: tuple[int, ...],
    knobs: dict[str, Any],
    previous: dict[int, ShortcutService] | None = None,
) -> dict[int, ShortcutService]:
    """(Re)load a worker's shard services from a snapshot path.

    On swap, degradation counters carry over from the previous services
    — the in-process analog (``ingest_round`` on one service) keeps its
    cumulative counters too.
    """
    snapshot = load_cluster_snapshot(snapshot_path)
    services: dict[int, ShortcutService] = {}
    for shard in shard_ids:
        if shard >= snapshot.num_shards:
            continue
        service = snapshot.segment_service(shard, **knobs)
        if previous is not None and shard in previous:
            service.counters = previous[shard].counters
        services[shard] = service
    return services


def _worker_main(
    widx: int,
    snapshot_path: str,
    shard_ids: tuple[int, ...],
    scratch_dir: str,
    capacity: int,
    max_k: int,
    knobs: dict[str, Any],
    cmd_q,
    done_q,
) -> None:
    """One worker process: serve owned shards from shared scratch buffers."""
    try:
        # under fork the child inherits the front's enabled obs state;
        # swap in fresh recorders on this worker's own trace lane *before*
        # building shard services, so their handles bind to worker state
        obs.begin_worker(lane=widx + 1, lane_name=f"worker-{widx}")
        sp_serve = obs.span("cluster.worker.serve")
        services = _build_shard_services(snapshot_path, shard_ids, knobs)
        qsrc = np.memmap(
            os.path.join(scratch_dir, "qsrc.dat"), np.int64, "r", shape=(capacity,)
        )
        qdst = np.memmap(
            os.path.join(scratch_dir, "qdst.dat"), np.int64, "r", shape=(capacity,)
        )
        qshard = np.memmap(
            os.path.join(scratch_dir, "qshard.dat"), np.int64, "r", shape=(capacity,)
        )
        arel = np.memmap(
            os.path.join(scratch_dir, "arel.dat"),
            np.int32, "r+", shape=(capacity, max_k),
        )
        ared = np.memmap(
            os.path.join(scratch_dir, "ared.dat"),
            np.float64, "r+", shape=(capacity, max_k),
        )
        atier = np.memmap(
            os.path.join(scratch_dir, "atier.dat"), np.int8, "r+", shape=(capacity,)
        )
        done_q.put(("ready", widx))
        while True:
            msg = cmd_q.get()
            op = msg[0]
            if op == "serve":
                _, m, shards, relay_value, k = msg
                relay_type = RelayType(relay_value)
                start = time.process_time()
                # the front ships queries unsorted plus each row's shard
                # code; the worker selects its own rows and scatters
                # answers back to original positions, so the O(n) row
                # bookkeeping runs in parallel (proportional to the
                # shards this worker was assigned) instead of as a
                # serial argsort on the front
                with sp_serve:
                    h = np.asarray(qshard[:m])
                    for shard in shards:
                        idx = np.flatnonzero(h == shard)
                        batch = services[shard].route_many(
                            qsrc[idx], qdst[idx], relay_type, k
                        )
                        arel[idx, :k] = batch.relay_ids
                        ared[idx, :k] = batch.reduction_ms
                        atier[idx] = batch.tier
                done_q.put(("done", widx, time.process_time() - start))
            elif op == "swap":
                services = _build_shard_services(
                    msg[1], shard_ids, knobs, previous=services
                )
                done_q.put(("swapped", widx))
            elif op == "counters":
                total = DegradationCounters()
                for service in services.values():
                    total.merge(service.counters.as_dict())
                done_q.put(("counters", widx, total.as_dict()))
            elif op == "obs":
                done_q.put(("obs", widx, obs.worker_payload()))
            elif op == "stop":
                done_q.put(("stopped", widx))
                return
            else:  # pragma: no cover - defensive
                raise ServiceError(f"unknown worker command {op!r}")
    except Exception:  # pragma: no cover - surfaced front-side as ServiceError
        import traceback

        done_q.put(("error", widx, traceback.format_exc()))


# ------------------------------------------------------------------- front


class ClusterService:
    """N worker processes serving one sharded snapshot, batch-coalesced.

    Built via :meth:`from_service` (shard a live service) or
    :meth:`from_snapshot` (serve a snapshot file; v2 snapshots migrate
    transparently).  Implements the same query surface as
    :class:`ShortcutService` — ``route_many`` / ``route`` /
    ``encode_endpoints`` / ``ingest_round`` — so :func:`~repro.service.
    loadgen.replay` drives either interchangeably, and answers are
    byte-identical to the in-process service by construction.

    Use as a context manager (or call :meth:`close`): the cluster owns
    worker processes and a scratch directory.
    """

    _TIMEOUT_S = 120.0

    def __init__(
        self,
        snapshot_path: str,
        *,
        workers: int = 2,
        k: int = 3,
        liveness_rounds: int | None = None,
        spill: int = 2,
        capacity: int = 32768,
        master: ShortcutService | None = None,
        workdir: str | None = None,
        owns_snapshot: bool = False,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        if capacity < 1:
            raise ServiceError(f"capacity must be >= 1, got {capacity}")
        if k < 1:
            raise ServiceError(f"k must be >= 1, got {k}")
        if liveness_rounds is not None and liveness_rounds < 1:
            raise ServiceError(
                f"liveness_rounds must be >= 1, got {liveness_rounds}"
            )
        if spill < 0:
            raise ServiceError(f"spill must be >= 0, got {spill}")
        self._closed = False
        self._procs: list = []
        self._snapshot_path = os.fspath(snapshot_path)
        self._owns_snapshot = owns_snapshot
        self._workdir = workdir or tempfile.mkdtemp(prefix="repro-cluster-")
        self._workers = workers
        self._k = k
        self._max_k = max(16, k)
        self._liveness_rounds = liveness_rounds
        self._spill = spill
        self._capacity = capacity
        self._master = master
        self._epoch = 0
        # front-side observability handles, bound once (no-ops when off)
        self._obs_on = obs.metrics_on()
        self._sp_route = obs.span("cluster.route_many")
        self._sp_swap = obs.span("cluster.snapshot_swap")
        self._c_batches = obs.counter("cluster.batches")
        self._c_queries = obs.counter("cluster.queries")

        snapshot = load_cluster_snapshot(self._snapshot_path)
        self._num_shards = snapshot.num_shards
        self._front = snapshot.identity_directory()
        self._endpoint_cc = self._front.endpoint_country_codes()

        scratch = os.path.join(self._workdir, "scratch")
        os.makedirs(scratch, exist_ok=True)
        self._scratch_dir = scratch
        self._qsrc = np.memmap(
            os.path.join(scratch, "qsrc.dat"), np.int64, "w+", shape=(capacity,)
        )
        self._qdst = np.memmap(
            os.path.join(scratch, "qdst.dat"), np.int64, "w+", shape=(capacity,)
        )
        self._qshard = np.memmap(
            os.path.join(scratch, "qshard.dat"), np.int64, "w+", shape=(capacity,)
        )
        self._arel = np.memmap(
            os.path.join(scratch, "arel.dat"),
            np.int32, "w+", shape=(capacity, self._max_k),
        )
        self._ared = np.memmap(
            os.path.join(scratch, "ared.dat"),
            np.float64, "w+", shape=(capacity, self._max_k),
        )
        self._atier = np.memmap(
            os.path.join(scratch, "atier.dat"), np.int8, "w+", shape=(capacity,)
        )

        methods = mp.get_all_start_methods()
        self._ctx = mp.get_context("fork" if "fork" in methods else None)
        self._done_q = self._ctx.Queue()
        self._cmd_qs = [self._ctx.Queue() for _ in range(workers)]
        knobs = {"k": k, "liveness_rounds": liveness_rounds, "spill": spill}
        try:
            for widx in range(workers):
                # every worker maps every shard (segment arrays are shared
                # read-only mmaps, so this costs views, not copies); the
                # front balances whole shards across workers per batch
                shard_ids = tuple(range(self._num_shards))
                proc = self._ctx.Process(
                    target=_worker_main,
                    args=(
                        widx, self._snapshot_path, shard_ids, scratch,
                        capacity, self._max_k, knobs,
                        self._cmd_qs[widx], self._done_q,
                    ),
                    daemon=True,
                )
                proc.start()
                self._procs.append(proc)
            pending = set(range(workers))
            while pending:
                msg = self._get_done()
                if msg[0] == "ready":
                    pending.discard(msg[1])
                elif msg[0] == "error":
                    self._raise_worker_error(msg)
        except BaseException:
            self.close()
            raise
        self.reset_clocks()

    # --------------------------------------------------------- constructors

    @classmethod
    def from_service(
        cls,
        service: ShortcutService | RelayDirectory,
        *,
        workers: int = 2,
        num_shards: int = NUM_SHARDS,
        capacity: int = 32768,
    ) -> ClusterService:
        """Shard a live service into a worker fleet.

        Tuning knobs (``k``, ``liveness_rounds``, ``spill``) are
        inherited from the service; the service stays attached as the
        ingest master, so :meth:`ingest_round` folds rounds into it and
        republishes.
        """
        if isinstance(service, RelayDirectory):
            service = ShortcutService.from_directory(service)
        workdir = tempfile.mkdtemp(prefix="repro-cluster-")
        try:
            path = os.path.join(workdir, "snapshot-0.npz")
            save_cluster_snapshot(
                service.directory, path, num_shards=num_shards
            )
            return cls(
                path,
                workers=workers,
                k=service.default_k,
                liveness_rounds=service.liveness_rounds,
                spill=service.spill,
                capacity=capacity,
                master=service,
                workdir=workdir,
                owns_snapshot=True,
            )
        except BaseException:
            shutil.rmtree(workdir, ignore_errors=True)
            raise

    @classmethod
    def from_snapshot(
        cls,
        file: str | IO[bytes],
        *,
        workers: int = 2,
        num_shards: int = NUM_SHARDS,
        k: int = 3,
        liveness_rounds: int | None = None,
        spill: int = 2,
        capacity: int = 32768,
    ) -> ClusterService:
        """Serve a snapshot file: v3 directly, v2 via transparent migration.

        A v2 (single-process) snapshot is loaded, resharded into
        ``num_shards`` segments and republished as v3; a v3 snapshot is
        served as-is (``num_shards`` then comes from the snapshot).
        """
        if hasattr(file, "seek"):
            file.seek(0)
        with np.load(file) as data:
            version = int(data["meta"][0])
        if hasattr(file, "seek"):
            file.seek(0)
        if version == SNAPSHOT_VERSION:
            service = ShortcutService.from_snapshot(
                file, k=k, liveness_rounds=liveness_rounds, spill=spill
            )
            return cls.from_service(
                service,
                workers=workers,
                num_shards=num_shards,
                capacity=capacity,
            )
        if version != CLUSTER_SNAPSHOT_VERSION:
            raise ServiceError(f"unknown snapshot version {version}")
        if isinstance(file, (str, os.PathLike)):
            return cls(
                os.fspath(file),
                workers=workers,
                k=k,
                liveness_rounds=liveness_rounds,
                spill=spill,
                capacity=capacity,
            )
        # buffer: give the workers a real file to mmap
        workdir = tempfile.mkdtemp(prefix="repro-cluster-")
        try:
            path = os.path.join(workdir, "snapshot-0.npz")
            with open(path, "wb") as out:
                shutil.copyfileobj(file, out)
            return cls(
                path,
                workers=workers,
                k=k,
                liveness_rounds=liveness_rounds,
                spill=spill,
                capacity=capacity,
                workdir=workdir,
                owns_snapshot=True,
            )
        except BaseException:
            shutil.rmtree(workdir, ignore_errors=True)
            raise

    # -------------------------------------------------------------- queries

    @property
    def directory(self) -> RelayDirectory:
        """Identity-only directory view (endpoints, countries, health)."""
        return self._front

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def num_shards(self) -> int:
        return self._num_shards

    @property
    def default_k(self) -> int:
        return self._k

    @property
    def liveness_rounds(self) -> int | None:
        return self._liveness_rounds

    @property
    def snapshot_path(self) -> str:
        """The snapshot the workers currently serve."""
        return self._snapshot_path

    def encode_endpoints(self, endpoint_ids) -> np.ndarray:
        """Directory codes for endpoint ids (-1 = never observed)."""
        return self._front.encode_endpoints(endpoint_ids)

    def route_many(
        self,
        src_codes: np.ndarray,
        dst_codes: np.ndarray,
        relay_type: RelayType = RelayType.COR,
        k: int | None = None,
    ) -> RouteBatch:
        """Relay choices for a whole query batch, served by the fleet.

        Validates once, partitions by shard, dispatches one coalesced
        command per owning worker, and reassembles answers in query
        order.  Byte-identical to the in-process ``route_many`` over the
        unsharded directory.
        """
        self._check_open()
        if k is None:
            k = self._k
        if k < 1:
            raise ServiceError(f"k must be >= 1, got {k}")
        if k > self._max_k:
            raise ServiceError(
                f"k={k} exceeds the cluster's answer-buffer width "
                f"{self._max_k}"
            )
        with self._sp_route:
            batch = self._route_many(src_codes, dst_codes, relay_type, k)
        if self._obs_on:
            self._c_batches.inc()
            self._c_queries.inc(int(batch.tier.shape[0]))
        return batch

    def _route_many(
        self,
        src_codes: np.ndarray,
        dst_codes: np.ndarray,
        relay_type: RelayType,
        k: int,
    ) -> RouteBatch:
        start = time.process_time()
        src, dst = validate_query_codes(
            src_codes, dst_codes, int(self._endpoint_cc.size)
        )
        self._front_cpu_s += time.process_time() - start
        n = src.shape[0]
        relay_ids = np.empty((n, k), np.int32)
        reduction_ms = np.empty((n, k), np.float64)
        tier = np.empty(n, np.int8)
        for lo in range(0, n, self._capacity):
            hi = min(lo + self._capacity, n)
            m = hi - lo
            start = time.process_time()
            shard = shard_of_queries(
                self._endpoint_cc, src[lo:hi], dst[lo:hi], self._num_shards
            )
            # queries ship unsorted (plain copies) plus each row's shard
            # code; every worker selects its own rows and scatters answers
            # back to original positions, so the per-row bookkeeping runs
            # in parallel instead of as a serial sort on the front
            self._qsrc[:m] = src[lo:hi]
            self._qdst[:m] = dst[lo:hi]
            self._qshard[:m] = shard
            counts = np.bincount(shard, minlength=self._num_shards)
            if self._obs_on:
                for s in np.flatnonzero(counts).tolist():
                    obs.inc(f"cluster.shard.{s}.queries", int(counts[s]))
            # greedy LPT: heaviest shards first onto the least-loaded
            # worker — real traffic is Zipf-skewed, so static s % W
            # assignment would leave one worker owning the hot shard
            shards_by_worker: dict[int, list[int]] = {}
            loads = [0] * self._workers
            occupied = sorted(
                np.flatnonzero(counts).tolist(),
                key=lambda s: (-int(counts[s]), s),
            )
            for s in occupied:
                widx = min(range(self._workers), key=loads.__getitem__)
                loads[widx] += int(counts[s])
                shards_by_worker.setdefault(widx, []).append(int(s))
            self._front_cpu_s += time.process_time() - start
            for widx, shards in shards_by_worker.items():
                self._cmd_qs[widx].put(("serve", m, shards, relay_type.value, k))
                self._dispatches += 1
            pending = set(shards_by_worker)
            while pending:
                msg = self._get_done()
                if msg[0] == "done":
                    self._busy[msg[1]] += msg[2]
                    pending.discard(msg[1])
                elif msg[0] == "error":
                    self._raise_worker_error(msg)
                else:  # pragma: no cover - defensive
                    raise ServiceError(f"unexpected worker reply {msg[0]!r}")
            start = time.process_time()
            relay_ids[lo:hi] = self._arel[:m, :k]
            reduction_ms[lo:hi] = self._ared[:m, :k]
            tier[lo:hi] = self._atier[:m]
            self._front_cpu_s += time.process_time() - start
            self._queries_served += m
        return RouteBatch(
            relay_ids=relay_ids, reduction_ms=reduction_ms, tier=tier
        )

    def route(
        self,
        src_id: str,
        dst_id: str,
        relay_type: RelayType = RelayType.COR,
        k: int | None = None,
    ) -> RouteAnswer:
        """One call-setup decision, by endpoint id (a one-query batch)."""
        codes = self.encode_endpoints((src_id, dst_id))
        batch = self.route_many(codes[:1], codes[1:], relay_type, k)
        valid = batch.relay_ids[0] >= 0
        return RouteAnswer(
            src_id=src_id,
            dst_id=dst_id,
            relay_type=relay_type,
            relay_ids=tuple(int(r) for r in batch.relay_ids[0][valid]),
            reduction_ms=tuple(float(g) for g in batch.reduction_ms[0][valid]),
            tier=TIER_NAMES[int(batch.tier[0])],
        )

    # --------------------------------------------------------------- ingest

    def ingest_round(self, source, round_id: int | None = None) -> dict[str, int]:
        """Fold a round into the master directory and swap with no downtime.

        The master ingests incrementally (byte-identical to a full
        recompile, as always), a fresh v3 snapshot is written next to
        the current one, and every worker remaps to it between serve
        commands; the previous snapshot is deleted only after all
        workers acknowledged the swap.
        """
        self._check_open()
        master = self._ensure_master()
        stats = master.ingest_round(source, round_id)
        self._publish(master.directory)
        return stats

    def _ensure_master(self) -> ShortcutService:
        if self._master is None:
            snapshot = load_cluster_snapshot(self._snapshot_path)
            self._master = ShortcutService.from_directory(
                snapshot.full_directory(),
                k=self._k,
                liveness_rounds=self._liveness_rounds,
                spill=self._spill,
            )
        return self._master

    def _publish(self, directory: RelayDirectory) -> None:
        with self._sp_swap:
            self._epoch += 1
            path = os.path.join(self._workdir, f"snapshot-{self._epoch}.npz")
            save_cluster_snapshot(directory, path, num_shards=self._num_shards)
            for cmd_q in self._cmd_qs:
                cmd_q.put(("swap", path))
            pending = set(range(self._workers))
            while pending:
                msg = self._get_done()
                if msg[0] == "swapped":
                    pending.discard(msg[1])
                elif msg[0] == "error":
                    self._raise_worker_error(msg)
            previous = self._snapshot_path
            self._snapshot_path = path
            if self._owns_snapshot:
                try:
                    os.unlink(previous)
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass
            self._owns_snapshot = True
            self._front = load_cluster_snapshot(path).identity_directory()
            self._endpoint_cc = self._front.endpoint_country_codes()
        obs.inc("cluster.snapshot_swaps")

    # ------------------------------------------------------------ telemetry

    def degradation_summary(self) -> dict[str, int] | None:
        """Aggregated worker degradation counters (None when health off)."""
        if self._liveness_rounds is None:
            return None
        self._check_open()
        for cmd_q in self._cmd_qs:
            cmd_q.put(("counters",))
        total = DegradationCounters()
        pending = set(range(self._workers))
        while pending:
            msg = self._get_done()
            if msg[0] == "counters":
                total.merge(msg[2])
                pending.discard(msg[1])
            elif msg[0] == "error":
                self._raise_worker_error(msg)
        return total.as_dict()

    def collect_obs(self) -> None:
        """Drain every worker's metrics/trace payload into the driver.

        Each worker records onto its own trace lane (``begin_worker``);
        this merges those lanes into the driver's recorders so one
        Chrome trace file shows the front and every worker as parallel
        timelines.  No-op when observability is disabled (workers then
        ship ``None`` payloads); call before :meth:`close`.
        """
        if not obs.active():
            return
        self._check_open()
        for cmd_q in self._cmd_qs:
            cmd_q.put(("obs",))
        pending = set(range(self._workers))
        while pending:
            msg = self._get_done()
            if msg[0] == "obs":
                if msg[2] is not None:
                    obs.merge_worker_payload(msg[2])
                pending.discard(msg[1])
            elif msg[0] == "error":
                self._raise_worker_error(msg)

    def reset_clocks(self) -> None:
        """Zero the scale-out accounting (start of a measured replay)."""
        self._front_cpu_s = 0.0
        self._busy = [0.0] * self._workers
        self._queries_served = 0
        self._dispatches = 0

    def scale_out_summary(self) -> dict[str, Any]:
        """CPU-clock scale-out accounting since :meth:`reset_clocks`.

        ``critical_path_s`` = front CPU + the busiest worker's CPU: the
        wall clock a one-core-per-process deployment would see, which is
        what ``aggregate_queries_per_s`` divides by.  See
        ``benchmarks/README.md`` for why this (and not wall clock) is
        the scale-out metric on shared-core CI hosts.
        """
        max_busy = max(self._busy) if self._busy else 0.0
        critical = self._front_cpu_s + max_busy
        return {
            "workers": self._workers,
            "num_shards": self._num_shards,
            "queries": int(self._queries_served),
            "dispatches": int(self._dispatches),
            "front_cpu_s": round(self._front_cpu_s, 6),
            "worker_busy_s": [round(b, 6) for b in self._busy],
            "max_worker_busy_s": round(max_busy, 6),
            "critical_path_s": round(critical, 6),
            "aggregate_queries_per_s": (
                int(self._queries_served / critical)
                if critical > 0 and self._queries_served
                else None
            ),
        }

    def stats(self) -> dict[str, Any]:
        """Cluster shape summary (front-side; no worker round-trip)."""
        return {
            "workers": self._workers,
            "num_shards": self._num_shards,
            "capacity": self._capacity,
            "default_k": self._k,
            "liveness_rounds": self._liveness_rounds,
            "spill": self._spill,
            "endpoints": int(self._endpoint_cc.size),
            "countries": len(self._front.countries()),
            "retained_rounds": self._front.retained_rounds(),
            "snapshot_path": self._snapshot_path,
        }

    # ------------------------------------------------------------- lifecycle

    def _get_done(self):
        try:
            return self._done_q.get(timeout=self._TIMEOUT_S)
        except Empty:
            raise ServiceError(
                f"cluster worker timed out after {self._TIMEOUT_S}s"
            ) from None

    def _raise_worker_error(self, msg) -> None:
        raise ServiceError(f"cluster worker {msg[1]} failed:\n{msg[2]}")

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError("cluster service is closed")

    def close(self) -> None:
        """Stop the workers and remove the scratch directory (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for cmd_q in getattr(self, "_cmd_qs", []):
            try:
                cmd_q.put(("stop",))
            except Exception:  # pragma: no cover - teardown best-effort
                pass
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=5)
        for attr in ("_qsrc", "_qdst", "_qshard", "_arel", "_ared", "_atier"):
            if hasattr(self, attr):
                setattr(self, attr, None)
        if getattr(self, "_workdir", None):
            shutil.rmtree(self._workdir, ignore_errors=True)

    def __enter__(self) -> ClusterService:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


# ------------------------------------------------------------- cross-world


def cross_world_service(
    results: list[CampaignResult],
    *,
    max_rounds: int | None = None,
    k: int = 3,
    liveness_rounds: int | None = None,
    spill: int = 2,
) -> tuple[ShortcutService, RelayRegistry, dict[str, int]]:
    """Compile one service over several campaigns' unified history.

    Relay identities unify by node id across the worlds (see
    :func:`repro.core.results.unify_relay_identities`), the remapped
    tables pool into one cross-world :class:`ObservationTable` (string
    pools union-re-coded by ``concat``), and the pooled table compiles
    round-by-round — worlds share round ids, so round ``r`` of every
    world merges into one directory round.

    Returns ``(service, unified_registry, unify_info)``.
    """
    if not results:
        raise ServiceError("cross_world_service needs at least one campaign")
    remapped, registry, info = unify_relay_identities(
        [result.table for result in results],
        [result.registry for result in results],
    )
    pooled = ObservationTable.concat(remapped)
    service = ShortcutService.from_table(
        pooled,
        max_rounds,
        k=k,
        liveness_rounds=liveness_rounds,
        spill=spill,
    )
    return service, registry, info
