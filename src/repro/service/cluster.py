"""The multi-process serving tier.

One :class:`~repro.service.service.ShortcutService` replays ~2M
queries/s on a single core; the "millions of users" architecture needs
more cores and more worlds.  This module provides both halves:

**Cross-world directories.**  :func:`cross_world_service` pools several
campaigns (different world seeds) into one service: relay identities are
unified by node id first (:func:`repro.core.results.unify_relay_identities`),
so the pooled :class:`~repro.core.table.ObservationTable` compiles into
one directory whose relay indices mean the same relay regardless of
which world observed it.

**One compiled segment.**  Workers serve the one snapshot format
:meth:`RelayDirectory.save <repro.service.directory.RelayDirectory.save>`
writes: the base arrays plus the directory's compiled lane blocks.
``np.savez`` stores members uncompressed, so :func:`load_cluster_snapshot`
maps each array straight off disk (``np.memmap``): N worker processes
share one read-only copy of the page cache instead of N heap copies, and
each worker serves *every* lane.  The base arrays let the ingest master
rebuild the full directory.  Defective files and other versions are
refused with a :class:`ServiceError` by the shared reader
(:func:`~repro.service.directory.read_snapshot`).

**Row-partitioned serving.**  :class:`ClusterService` is the batching
front: it validates each query batch once, copies it into shared scratch
buffers and hands worker ``w`` of ``W`` the contiguous row span
``[m*w//W, m*(w+1)//W)``.  Each worker answers its span with one
``route_many`` over its one segment and writes the answers back in place,
so the front reassembles nothing and answers are byte-identical to the
in-process service for any worker count by construction.  Commands and
replies travel over one duplex pipe per worker.  Ingest goes through a
master directory: fold the round in, write a fresh snapshot, and send
every worker a ``swap`` — a worker remaps between serve commands (its
pipe is FIFO), so no in-flight batch ever sees half-new state.

**Failure detection.**  While a reply is pending the front waits on each
worker's pipe *and* its process sentinel, so a worker that dies (EOF or
a fired sentinel) fails the pending call with a :class:`ServiceError`
naming the worker and its exit code within milliseconds;
``_TIMEOUT_S`` remains the backstop for a live worker that hangs.  A
failed cluster refuses further calls; :meth:`ClusterService.close` still
tears it down promptly.

Scale-out accounting is CPU-clock based: each worker reports its busy
time (``time.process_time``) per command, and the front adds its own
validation/copy CPU.  ``aggregate_queries_per_s`` is queries over the
*critical path* (front CPU + the busiest worker's CPU) — the throughput
a deployment with one core per process would sustain — which measures
real work division even on a single-core CI box where wall-clock
parallelism is physically impossible.  See ``benchmarks/README.md`` for
the protocol.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import shutil
import tempfile
import time
import traceback
from multiprocessing.connection import wait
from typing import IO, Any

import numpy as np

from repro import obs
from repro.core.results import CampaignResult, RelayRegistry, unify_relay_identities
from repro.core.table import ObservationTable
from repro.core.types import RELAY_TYPE_ORDER, RelayType
from repro.errors import ServiceError
from repro.service.directory import (
    TIER_COUNTRY,
    TIER_NAMES,
    TIER_PAIR,
    LaneBlock,
    RelayDirectory,
    read_snapshot,
    validate_query_codes,
)
from repro.service.results import DegradationCounters, RouteAnswer, RouteBatch
from repro.service.service import ShortcutService

__all__ = [
    "ClusterService",
    "ClusterSnapshot",
    "cross_world_service",
    "load_cluster_snapshot",
]

_TIERS = (TIER_PAIR, TIER_COUNTRY)


class ClusterSnapshot:
    """A parsed snapshot: identity arrays plus one compiled segment.

    Arrays may be lazily ``np.memmap``-backed (the worker path) or eager
    (buffer loads); accessors never care which.
    """

    def __init__(self, arrays: dict[str, np.ndarray]) -> None:
        meta = np.asarray(arrays["meta"])
        self._arrays = arrays
        self.max_rounds: int | None = None if int(meta[1]) < 0 else int(meta[1])

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

    def blocks(self) -> dict[tuple[int, int], LaneBlock]:
        """The compiled lane blocks, possibly memmap-backed."""
        blocks: dict[tuple[int, int], LaneBlock] = {}
        for tier in _TIERS:
            for code in range(len(RELAY_TYPE_ORDER)):
                prefix = f"b_t{tier}_{code}"
                if f"{prefix}_keys" not in self._arrays:
                    continue
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
        *,
        k: int = 3,
        liveness_rounds: int | None = None,
        spill: int = 2,
    ) -> ShortcutService:
        """A queryable service over the compiled segment (worker side).

        Carries the identity arrays health filtering and validation need
        (endpoint countries, relay health) but no per-round rows, so it
        answers exactly as the full directory does and cannot ingest.
        """
        view = RelayDirectory.segment_view(
            blocks=self.blocks(),
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
        """Rebuild the complete directory with its round rows (the ingest
        master): :meth:`RelayDirectory.load`'s rebuild over these arrays."""
        return RelayDirectory._from_arrays(self._arrays)


def load_cluster_snapshot(
    file: str | IO[bytes], *, mmap: bool = True
) -> ClusterSnapshot:
    """Parse a snapshot, memory-mapping arrays when given a path.

    Raises:
        ServiceError: for any defective snapshot (see
            :func:`~repro.service.directory.read_snapshot`).
    """
    return ClusterSnapshot(read_snapshot(file, mmap=mmap))


# ----------------------------------------------------------------- workers


def _scratch(scratch_dir: str, name: str, dtype, shape, mode: str) -> np.ndarray:
    """A plain-ndarray view of one shared scratch buffer file."""
    return np.asarray(
        np.memmap(os.path.join(scratch_dir, name), dtype, mode, shape=shape)
    )


def _worker_main(
    widx: int,
    snapshot_path: str,
    scratch_dir: str,
    capacity: int,
    max_k: int,
    knobs: dict[str, Any],
    conn,
) -> None:
    """One worker process: answer row spans from shared scratch buffers."""
    try:
        # under fork the child inherits the front's enabled obs state;
        # swap in fresh recorders on this worker's own trace lane *before*
        # building the service, so its handles bind to worker state
        obs.begin_worker(lane=widx + 1, lane_name=f"worker-{widx}")
        sp_serve = obs.span("cluster.worker.serve")
        service = load_cluster_snapshot(snapshot_path).segment_service(**knobs)
        qsrc = _scratch(scratch_dir, "qsrc.dat", np.int64, (capacity,), "r")
        qdst = _scratch(scratch_dir, "qdst.dat", np.int64, (capacity,), "r")
        arel = _scratch(scratch_dir, "arel.dat", np.int32, (capacity, max_k), "r+")
        ared = _scratch(scratch_dir, "ared.dat", np.float64, (capacity, max_k), "r+")
        atier = _scratch(scratch_dir, "atier.dat", np.int8, (capacity,), "r+")
        conn.send(("ready",))
        while True:
            msg = conn.recv()
            op = msg[0]
            if op == "serve":
                _, lo, hi, relay_value, k = msg
                start = time.process_time()
                with sp_serve:
                    batch = service.route_many(
                        qsrc[lo:hi], qdst[lo:hi], RelayType(relay_value), k
                    )
                    arel[lo:hi, :k] = batch.relay_ids
                    ared[lo:hi, :k] = batch.reduction_ms
                    atier[lo:hi] = batch.tier
                conn.send(("done", time.process_time() - start))
            elif op == "swap":
                # degradation counters carry over, as they do across
                # ingest_round on one in-process service
                counters = service.counters
                service = load_cluster_snapshot(msg[1]).segment_service(**knobs)
                service.counters = counters
                conn.send(("swapped",))
            elif op == "counters":
                conn.send(("counters", service.counters.as_dict()))
            elif op == "obs":
                conn.send(("obs", obs.worker_payload()))
            elif op == "stop":
                return
            else:  # pragma: no cover - defensive
                raise ServiceError(f"unknown worker command {op!r}")
    except Exception:  # pragma: no cover - surfaced front-side as ServiceError
        conn.send(("error", traceback.format_exc()))


# ------------------------------------------------------------------- front


class ClusterService:
    """N worker processes serving one mmap'd snapshot, row-partitioned.

    Built via :meth:`from_service` (scale out a live service) or
    :meth:`from_snapshot` (serve a snapshot file or buffer).  Implements
    the same query surface as :class:`ShortcutService` — ``route_many`` /
    ``route`` / ``encode_endpoints`` / ``ingest_round`` — so
    :func:`~repro.service.loadgen.replay` drives either interchangeably,
    and answers are byte-identical to the in-process service by
    construction.

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
        self._failure: str | None = None
        self._procs: list = []
        self._conns: list = []
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

        try:
            self._front = load_cluster_snapshot(
                self._snapshot_path
            ).identity_directory()
            self._endpoint_cc = self._front.endpoint_country_codes()

            scratch = os.path.join(self._workdir, "scratch")
            os.makedirs(scratch, exist_ok=True)
            max_k = self._max_k
            self._qsrc = _scratch(scratch, "qsrc.dat", np.int64, (capacity,), "w+")
            self._qdst = _scratch(scratch, "qdst.dat", np.int64, (capacity,), "w+")
            self._arel = _scratch(scratch, "arel.dat", np.int32, (capacity, max_k), "w+")
            self._ared = _scratch(scratch, "ared.dat", np.float64, (capacity, max_k), "w+")
            self._atier = _scratch(scratch, "atier.dat", np.int8, (capacity,), "w+")

            methods = mp.get_all_start_methods()
            ctx = mp.get_context("fork" if "fork" in methods else None)
            knobs = {"k": k, "liveness_rounds": liveness_rounds, "spill": spill}
            for widx in range(workers):
                conn, child = ctx.Pipe(duplex=True)
                proc = ctx.Process(
                    target=_worker_main,
                    args=(
                        widx, self._snapshot_path, scratch,
                        capacity, max_k, knobs, child,
                    ),
                    daemon=True,
                )
                proc.start()
                # closed before the next fork, so a worker's death is EOF
                # on its pipe and no later worker holds its far end
                child.close()
                self._procs.append(proc)
                self._conns.append(conn)
            self._gather(range(workers), "ready")
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
        capacity: int = 32768,
    ) -> ClusterService:
        """Scale a live service out to a worker fleet.

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
            service.directory.save(path)
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
        k: int = 3,
        liveness_rounds: int | None = None,
        spill: int = 2,
        capacity: int = 32768,
    ) -> ClusterService:
        """Serve a :meth:`ShortcutService.save` snapshot (path or buffer).

        Raises:
            ServiceError: for any defective snapshot (see
                :func:`~repro.service.directory.read_snapshot`), before
                any worker starts.
        """
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

        Validates once, gives every worker one contiguous row span, and
        returns the answers the workers wrote in place.  Byte-identical
        to the in-process ``route_many``.
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
        workers = self._workers
        relay_ids = np.empty((n, k), np.int32)
        reduction_ms = np.empty((n, k), np.float64)
        tier = np.empty(n, np.int8)
        for lo in range(0, n, self._capacity):
            hi = min(lo + self._capacity, n)
            m = hi - lo
            start = time.process_time()
            self._qsrc[:m] = src[lo:hi]
            self._qdst[:m] = dst[lo:hi]
            self._front_cpu_s += time.process_time() - start
            busy = []
            for widx in range(workers):
                a, b = m * widx // workers, m * (widx + 1) // workers
                if b > a:
                    self._send(widx, ("serve", a, b, relay_type.value, k))
                    busy.append(widx)
            self._dispatches += len(busy)
            for widx, msg in self._gather(busy, "done").items():
                self._busy[widx] += msg[1]
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
        recompile, as always), a fresh snapshot is written next to the
        current one, and every worker remaps to it between serve
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
            directory.save(path)
            self._broadcast(("swap", path), "swapped")
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
        """Summed worker degradation counters (None when health off).

        Every counter is a per-row sum, so the total equals what the
        in-process service counts over the same batches.
        """
        if self._liveness_rounds is None:
            return None
        self._check_open()
        total = DegradationCounters()
        for msg in self._broadcast(("counters",), "counters").values():
            total.merge(msg[1])
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
        replies = self._broadcast(("obs",), "obs")
        for widx in sorted(replies):
            if replies[widx][1] is not None:
                obs.merge_worker_payload(replies[widx][1])

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

    def _send(self, widx: int, msg: tuple) -> None:
        try:
            self._conns[widx].send(msg)
        except OSError:
            self._worker_died(widx)

    def _broadcast(self, msg: tuple, expect: str) -> dict[int, tuple]:
        for widx in range(self._workers):
            self._send(widx, msg)
        return self._gather(range(self._workers), expect)

    def _gather(self, widxs, expect: str) -> dict[int, tuple]:
        """One ``expect`` reply from each worker in ``widxs``.

        Waits on every pending worker's pipe and process sentinel at
        once: a worker that exits with a reply still owed fails the call
        at once instead of after ``_TIMEOUT_S``.
        """
        owner: dict[Any, int] = {}
        for widx in widxs:
            owner[self._conns[widx]] = widx
            owner[self._procs[widx].sentinel] = widx
        pending = set(owner.values())
        replies: dict[int, tuple] = {}
        deadline = time.monotonic() + self._TIMEOUT_S
        while pending:
            ready = wait(list(owner), timeout=max(deadline - time.monotonic(), 0))
            if not ready:
                self._fail(f"cluster worker timed out after {self._TIMEOUT_S}s")
            for handle in ready:
                widx = owner[handle]
                conn = self._conns[widx]
                if widx not in pending:
                    continue
                # a fired sentinel may still leave a reply in the pipe
                if handle is not conn and not conn.poll():
                    self._worker_died(widx)
                try:
                    msg = conn.recv()
                except (EOFError, OSError):  # OSError: reset by a killed peer
                    self._worker_died(widx)
                if msg[0] == "error":
                    self._fail(f"cluster worker {widx} failed:\n{msg[1]}")
                if msg[0] != expect:  # pragma: no cover - defensive
                    self._fail(f"unexpected worker reply {msg[0]!r}")
                replies[widx] = msg
                pending.discard(widx)
                del owner[conn], owner[self._procs[widx].sentinel]
        return replies

    def _worker_died(self, widx: int) -> None:
        proc = self._procs[widx]
        proc.join(timeout=1.0)
        self._fail(f"cluster worker {widx} died (exit code {proc.exitcode})")

    def _fail(self, reason: str) -> None:
        """Raise ``reason``; the cluster refuses every later call.

        Replies from the surviving workers may still be in flight, so the
        command/reply pairing is no longer trustworthy.
        """
        self._failure = reason
        raise ServiceError(reason)

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError("cluster service is closed")
        if self._failure is not None:
            raise ServiceError(f"cluster service failed: {self._failure}")

    def close(self) -> None:
        """Stop the workers and remove the scratch directory (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except OSError:  # the worker already died
                pass
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=5)
        for conn in self._conns:
            conn.close()
        for attr in ("_qsrc", "_qdst", "_arel", "_ared", "_atier"):
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
