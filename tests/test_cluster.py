"""Cluster serving tier: snapshots, row-partitioned worker fleets.

The load-bearing invariant throughout: every worker maps the whole
compiled segment and answers a contiguous row span of each batch, so
cluster answers are byte-identical to the in-process service for any
worker count.  Committed golden digests pin those answers.
"""

from __future__ import annotations

import io
import os
import re
import signal
import time

import numpy as np
import pytest

from repro.core.types import RELAY_TYPE_ORDER, RelayType
from repro.errors import ServiceError
from repro.service import (
    SNAPSHOT_VERSION,
    TIER_COUNTRY,
    TIER_PAIR,
    ClusterService,
    LoadgenConfig,
    RelayDirectory,
    ShortcutService,
    cross_world_service,
    load_cluster_snapshot,
    replay,
)

#: Answers digest of ``GOLDEN_CONFIG`` replayed against the ``service``
#: fixture, and that fixture's ``block_signature()``.  Recorded before the
#: row-partitioned serving path existed, so they pin the answers
#: independently of it: a change here means the answers changed.
GOLDEN_CONFIG = LoadgenConfig(num_queries=4096, batch_size=512)
GOLDEN_ANSWERS_DIGEST = "08a1fd988bad0c913f699074eed34e05"
GOLDEN_BLOCK_SIGNATURE = "c4dc0e4c91ed61dbd1c949a2883d5da3"


@pytest.fixture(scope="module")
def service(small_campaign_result):
    return ShortcutService.from_campaign(small_campaign_result)


def _snapshot_bytes(service: ShortcutService) -> bytes:
    buffer = io.BytesIO()
    service.save(buffer)
    return buffer.getvalue()


def _base_arrays(directory: RelayDirectory) -> dict[str, np.ndarray]:
    """The snapshot's arrays without the compiled blocks (the v2 layout)."""
    return {
        name: arr
        for name, arr in directory.snapshot_arrays().items()
        if not name.startswith("b_")
    }


def _sharded_v3_arrays(directory: RelayDirectory) -> dict[str, np.ndarray]:
    """The retired sharded layout: base arrays, meta (3, max_rounds,
    num_shards), per-shard segment arrays and a shard manifest."""
    arrays = _base_arrays(directory)
    arrays["meta"] = np.asarray([3, -1, 16], np.int64)
    block = directory.block(TIER_PAIR, RelayType.COR)
    arrays["s0_t0_0_keys"] = block.keys
    arrays["s0_t0_0_indptr"] = block.indptr
    arrays["shard_manifest"] = np.asarray(
        [[0, 0, 0, block.num_lanes, block.relays.size]], np.int64
    )
    return arrays


#: Every snapshot reader; each must turn a defective file into a
#: ServiceError naming it.
SNAPSHOT_LOADERS = {
    "RelayDirectory.load": RelayDirectory.load,
    "ShortcutService.load": ShortcutService.load,
    "ShortcutService.from_snapshot": ShortcutService.from_snapshot,
    "load_cluster_snapshot": load_cluster_snapshot,
    "load_cluster_snapshot(mmap=False)": lambda path: load_cluster_snapshot(
        path, mmap=False
    ),
    "ClusterService.from_snapshot": lambda path: ClusterService.from_snapshot(
        path, workers=1
    ),
}


def _sample_codes(service, n=512, seed=7):
    """Random known endpoint-code pairs drawn from the directory."""
    codes = service.encode_endpoints(sorted(service.directory.endpoint_ids()))
    rng = np.random.default_rng(seed)
    return (
        codes[rng.integers(codes.size, size=n)],
        codes[rng.integers(codes.size, size=n)],
    )


class TestSnapshotV3:
    """The snapshot format (v4; the class keeps its v3-era name)."""

    def test_roundtrip_rebuilds_full_directory(self, service, tmp_path):
        path = tmp_path / "cluster.npz"
        service.save(path)
        snapshot = load_cluster_snapshot(path)
        rebuilt = snapshot.full_directory()
        assert (
            rebuilt.block_signature()
            == service.directory.block_signature()
        )

    def test_segment_holds_every_compiled_block_once(self, service):
        buffer = io.BytesIO(_snapshot_bytes(service))
        blocks = load_cluster_snapshot(buffer).blocks()
        for tier in (TIER_PAIR, TIER_COUNTRY):
            for code, relay_type in enumerate(RELAY_TYPE_ORDER):
                block = service.directory.block(tier, relay_type)
                if block.num_lanes == 0:
                    assert (tier, code) not in blocks
                else:
                    assert blocks[(tier, code)].equal(block)

    def test_save_is_deterministic(self, service):
        assert _snapshot_bytes(service) == _snapshot_bytes(service)

    def test_mmap_and_eager_loads_agree(self, service, tmp_path):
        path = tmp_path / "cluster.npz"
        service.save(path)
        lazy = load_cluster_snapshot(path, mmap=True).blocks()
        eager = load_cluster_snapshot(path, mmap=False).blocks()
        assert lazy and set(lazy) == set(eager)
        for key in lazy:
            assert isinstance(lazy[key].keys, np.memmap)
            assert lazy[key].equal(eager[key])

    def test_unknown_version_rejected(self, service, tmp_path):
        path = tmp_path / "cluster.npz"
        service.save(path)
        arrays = dict(np.load(path))
        arrays["meta"] = arrays["meta"].copy()
        arrays["meta"][0] = SNAPSHOT_VERSION + 1
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        with pytest.raises(ServiceError, match="version 5, which cannot be read"):
            load_cluster_snapshot(bad)

    def test_sharded_v3_snapshot_refused_with_resave_hint(self, service, tmp_path):
        path = tmp_path / "sharded-v3.npz"
        np.savez(path, **_sharded_v3_arrays(service.directory))
        match = r"version 3, .*must be rebuilt"
        for mmap in (True, False):
            with pytest.raises(ServiceError, match=match):
                load_cluster_snapshot(path, mmap=mmap)
        with pytest.raises(ServiceError, match=match):
            ClusterService.from_snapshot(path, workers=1)
        with pytest.raises(ServiceError, match=match):
            ClusterService.from_snapshot(io.BytesIO(path.read_bytes()), workers=1)
        with pytest.raises(ServiceError, match=match):
            ClusterService(str(path), workers=1)
        with pytest.raises(ServiceError, match=match):
            RelayDirectory.load(path)

    def test_segment_service_answers_match_in_process(self, service):
        buffer = io.BytesIO(_snapshot_bytes(service))
        segment = load_cluster_snapshot(buffer).segment_service()
        src, dst = _sample_codes(service, n=256)
        for relay_type in RELAY_TYPE_ORDER:
            want = service.route_many(src, dst, relay_type, 3)
            got = segment.route_many(src, dst, relay_type, 3)
            assert np.array_equal(got.relay_ids, want.relay_ids)
            assert np.array_equal(got.tier, want.tier)
            assert np.array_equal(
                got.reduction_ms, want.reduction_ms, equal_nan=True
            )


class TestSnapshotDefects:
    """Fault injection: every defective snapshot is a ServiceError naming
    the file, from every reader."""

    def _assert_refused(self, path, match):
        for name, load in SNAPSHOT_LOADERS.items():
            with pytest.raises(ServiceError, match=match) as info:
                load(path)
            assert str(path) in str(info.value), name

    def _save(self, tmp_path, arrays):
        path = tmp_path / "defective.npz"
        np.savez(path, **arrays)
        return path

    def test_missing_file(self, tmp_path):
        self._assert_refused(tmp_path / "absent.npz", "cannot be read")

    def test_not_a_zip(self, tmp_path):
        path = tmp_path / "notes.npz"
        path.write_text("not a snapshot\n")
        self._assert_refused(path, "cannot be read")

    def test_truncated(self, service, tmp_path):
        path = tmp_path / "truncated.npz"
        data = _snapshot_bytes(service)
        path.write_bytes(data[: len(data) // 2])
        self._assert_refused(path, "cannot be read")

    def test_missing_meta(self, service, tmp_path):
        arrays = service.directory.snapshot_arrays()
        del arrays["meta"]
        self._assert_refused(self._save(tmp_path, arrays), "no meta member")

    def test_missing_base_member(self, service, tmp_path):
        arrays = service.directory.snapshot_arrays()
        del arrays["endpoint_cc"]
        self._assert_refused(
            self._save(tmp_path, arrays), re.escape("lacks members ['endpoint_cc']")
        )

    def test_version_2(self, service, tmp_path):
        arrays = _base_arrays(service.directory)
        arrays["meta"] = np.asarray([2, -1], np.int64)
        self._assert_refused(
            self._save(tmp_path, arrays), r"version 2, .*must be rebuilt"
        )

    def test_version_3(self, service, tmp_path):
        arrays = _sharded_v3_arrays(service.directory)
        self._assert_refused(
            self._save(tmp_path, arrays), r"version 3, .*must be rebuilt"
        )

    def test_defective_buffers(self, service):
        data = _snapshot_bytes(service)
        for defect in (b"not a snapshot\n", data[: len(data) // 2]):
            for load in (
                RelayDirectory.load,
                ShortcutService.from_snapshot,
                load_cluster_snapshot,
            ):
                with pytest.raises(ServiceError, match="<buffer> cannot be read"):
                    load(io.BytesIO(defect))

    def test_unknown_version(self, service, tmp_path):
        arrays = service.directory.snapshot_arrays()
        arrays["meta"] = np.asarray([99, -1], np.int64)
        self._assert_refused(
            self._save(tmp_path, arrays), r"version 99, .*must be rebuilt"
        )


class TestGoldenDigests:
    def test_service_fixture_block_signature(self, service):
        assert service.directory.block_signature() == GOLDEN_BLOCK_SIGNATURE

    def test_in_process_answers_digest(self, service):
        assert replay(service, GOLDEN_CONFIG).answers_digest == GOLDEN_ANSWERS_DIGEST

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_cluster_answers_digest(self, service, workers):
        with ClusterService.from_service(
            service, workers=workers, capacity=1024
        ) as cluster:
            stats = replay(cluster, GOLDEN_CONFIG)
        assert stats.answers_digest == GOLDEN_ANSWERS_DIGEST


class TestClusterInvariance:
    CONFIG = LoadgenConfig(num_queries=4096, batch_size=512)

    def test_worker_count_invariant_and_matches_in_process(self, service):
        want = replay(service, self.CONFIG)
        digests = {want.answers_digest}
        for workers in (1, 2):
            with ClusterService.from_service(
                service, workers=workers, capacity=1024
            ) as cluster:
                assert cluster.workers == workers
                digests.add(replay(cluster, self.CONFIG).answers_digest)
        assert len(digests) == 1

    def test_route_many_byte_identical(self, service):
        src, dst = _sample_codes(service, n=700)
        with ClusterService.from_service(
            service, workers=2, capacity=256
        ) as cluster:
            for relay_type in RELAY_TYPE_ORDER:
                want = service.route_many(src, dst, relay_type, 3)
                got = cluster.route_many(src, dst, relay_type, 3)
                assert np.array_equal(got.relay_ids, want.relay_ids)
                assert np.array_equal(got.tier, want.tier)
                assert np.array_equal(
                    got.reduction_ms, want.reduction_ms, equal_nan=True
                )

    def test_scalar_route_matches_in_process(self, service):
        ids = sorted(service.directory.endpoint_ids())[:2]
        with ClusterService.from_service(service, workers=1) as cluster:
            assert cluster.route(ids[0], ids[1]) == service.route(
                ids[0], ids[1]
            )

    def test_from_snapshot_serves_path_and_buffer(self, service, tmp_path):
        src, dst = _sample_codes(service, n=128)
        want = service.route_many(src, dst, RelayType.COR, 3)
        path = tmp_path / "snapshot.npz"
        service.save(path)
        for file in (path, io.BytesIO(_snapshot_bytes(service))):
            with ClusterService.from_snapshot(file, workers=2) as cluster:
                got = cluster.route_many(src, dst, RelayType.COR, 3)
                assert np.array_equal(got.relay_ids, want.relay_ids)

    def test_constructor_validation(self, service, tmp_path):
        path = tmp_path / "snapshot.npz"
        service.save(path)
        for kwargs in (
            {"workers": 0},
            {"capacity": 0},
            {"k": 0},
            {"liveness_rounds": 0},
            {"spill": -1},
        ):
            with pytest.raises(ServiceError):
                ClusterService(str(path), **kwargs)

    def test_closed_cluster_rejects_queries(self, service):
        cluster = ClusterService.from_service(service, workers=1)
        cluster.close()
        cluster.close()  # idempotent
        with pytest.raises(ServiceError):
            cluster.route_many(
                np.asarray([0], np.int64), np.asarray([1], np.int64)
            )


class TestIngestSwap:
    def test_mid_swap_ingest_matches_scratch_build(
        self, small_campaign_result
    ):
        rounds = small_campaign_result.rounds
        partial = ShortcutService.from_campaign(
            small_campaign_result, rounds=rounds[:-1]
        )
        full = ShortcutService.from_campaign(small_campaign_result)
        src, dst = _sample_codes(full, n=400)
        with ClusterService.from_service(partial, workers=2) as cluster:
            before = cluster.snapshot_path
            stats = cluster.ingest_round(rounds[-1])
            assert stats["round_id"] == rounds[-1].round_index
            assert cluster.snapshot_path != before
            for relay_type in RELAY_TYPE_ORDER:
                want = full.route_many(src, dst, relay_type, 3)
                got = cluster.route_many(src, dst, relay_type, 3)
                assert np.array_equal(got.relay_ids, want.relay_ids)
                assert np.array_equal(got.tier, want.tier)

    def test_snapshot_served_cluster_can_ingest(
        self, small_campaign_result, tmp_path
    ):
        rounds = small_campaign_result.rounds
        partial = ShortcutService.from_campaign(
            small_campaign_result, rounds=rounds[:-1]
        )
        full = ShortcutService.from_campaign(small_campaign_result)
        path = tmp_path / "partial.npz"
        partial.save(path)
        src, dst = _sample_codes(full, n=200)
        # no master attached: ingest must rebuild one from the snapshot
        with ClusterService.from_snapshot(path, workers=1) as cluster:
            cluster.ingest_round(rounds[-1])
            want = full.route_many(src, dst, RelayType.COR, 3)
            got = cluster.route_many(src, dst, RelayType.COR, 3)
            assert np.array_equal(got.relay_ids, want.relay_ids)


class TestRowSplit:
    """Row spans: uneven, empty, chunked and full-width batches."""

    def _assert_same(self, got, want):
        assert np.array_equal(got.relay_ids, want.relay_ids)
        assert np.array_equal(got.tier, want.tier)
        assert np.array_equal(got.reduction_ms, want.reduction_ms, equal_nan=True)

    def test_one_query_with_three_workers(self, service):
        src, dst = _sample_codes(service, n=1)
        with ClusterService.from_service(service, workers=3) as cluster:
            got = cluster.route_many(src, dst, RelayType.COR, 3)
            # two of the three spans are empty and never dispatched
            assert cluster.scale_out_summary()["dispatches"] == 1
        self._assert_same(got, service.route_many(src, dst, RelayType.COR, 3))

    def test_batch_larger_than_capacity(self, service):
        src, dst = _sample_codes(service, n=1024)
        with ClusterService.from_service(
            service, workers=2, capacity=100
        ) as cluster:
            got = cluster.route_many(src, dst, RelayType.COR, 3)
            summary = cluster.scale_out_summary()
        self._assert_same(got, service.route_many(src, dst, RelayType.COR, 3))
        assert summary["queries"] == 1024
        assert summary["dispatches"] == 2 * 11  # ceil(1024 / 100) chunks

    def test_k_equal_to_answer_width(self, service):
        src, dst = _sample_codes(service, n=300)
        with ClusterService.from_service(service, workers=2) as cluster:
            max_k = 16
            got = cluster.route_many(src, dst, RelayType.COR, max_k)
            with pytest.raises(ServiceError, match="answer-buffer width"):
                cluster.route_many(src, dst, RelayType.COR, max_k + 1)
        self._assert_same(
            got, service.route_many(src, dst, RelayType.COR, max_k)
        )

    def test_empty_batch(self, service):
        empty = np.empty(0, np.int64)
        with ClusterService.from_service(service, workers=2) as cluster:
            got = cluster.route_many(empty, empty, RelayType.COR, 3)
            assert cluster.scale_out_summary()["dispatches"] == 0
        assert got.relay_ids.shape == (0, 3)
        self._assert_same(got, service.route_many(empty, empty, RelayType.COR, 3))


class TestDegradationCounters:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_counters_equal_in_process(self, small_campaign_result, workers):
        rounds = small_campaign_result.rounds

        def partial():
            return ShortcutService.from_campaign(
                small_campaign_result, rounds=rounds[:-1], liveness_rounds=1
            )

        local = partial()
        config = LoadgenConfig(num_queries=3000, batch_size=256)
        with ClusterService.from_service(partial(), workers=workers) as cluster:
            for ingest in (None, rounds[-1]):
                if ingest is not None:
                    local.ingest_round(ingest)
                    cluster.ingest_round(ingest)
                want = replay(local, config)
                got = replay(cluster, config)
                assert got.answers_digest == want.answers_digest
                assert cluster.degradation_summary() == local.degradation_summary()
            summary = cluster.degradation_summary()
        # the guard actually fired, so the equality is not vacuous
        assert summary["queries"] == 6000
        assert summary["candidates_evicted"] > 0


class TestWorkerDeath:
    """A dead worker fails the next call fast and never hangs close()."""

    def _kill(self, cluster, widx):
        os.kill(cluster._procs[widx].pid, signal.SIGKILL)

    def _assert_fast_failure(self, call):
        start = time.monotonic()
        with pytest.raises(ServiceError, match=r"worker 1 died \(exit code -9\)"):
            call()
        assert time.monotonic() - start < 1.0

    def _assert_prompt_close(self, cluster):
        start = time.monotonic()
        cluster.close()
        assert time.monotonic() - start < 5.0

    def test_kill_between_batches(self, service):
        src, dst = _sample_codes(service, n=512)
        cluster = ClusterService.from_service(service, workers=2)
        try:
            cluster.route_many(src, dst)
            self._kill(cluster, 1)
            self._assert_fast_failure(lambda: cluster.route_many(src, dst))
            # a failed cluster refuses further work instead of pairing
            # stale replies with new commands
            with pytest.raises(ServiceError, match="failed"):
                cluster.route_many(src, dst)
        finally:
            self._assert_prompt_close(cluster)

    def test_kill_before_ingest(self, small_campaign_result):
        rounds = small_campaign_result.rounds
        partial = ShortcutService.from_campaign(
            small_campaign_result, rounds=rounds[:-1]
        )
        cluster = ClusterService.from_service(partial, workers=2)
        try:
            self._kill(cluster, 1)
            self._assert_fast_failure(lambda: cluster.ingest_round(rounds[-1]))
        finally:
            self._assert_prompt_close(cluster)


class TestCrossWorld:
    def test_unifies_identities_and_stays_deterministic(
        self, small_campaign_result
    ):
        results = [small_campaign_result, small_campaign_result]
        service, registry, info = cross_world_service(results)
        assert info["worlds"] == 2
        # the two worlds are byte-identical, so every relay identity
        # collapses onto its twin: the unified census equals one world's
        assert info["relays"] == info["relays_before"] // 2
        assert info["attribute_conflicts"] == 0
        again, _, _ = cross_world_service(results)
        assert (
            again.directory.block_signature()
            == service.directory.block_signature()
        )

    def test_single_world_matches_plain_compile(self, small_campaign_result):
        unified, _, info = cross_world_service([small_campaign_result])
        plain = ShortcutService.from_campaign(small_campaign_result)
        assert info["worlds"] == 1
        ids = sorted(plain.directory.endpoint_ids())
        cp = plain.encode_endpoints(ids)
        cu = unified.encode_endpoints(ids)
        rng = np.random.default_rng(5)
        ii = rng.integers(len(ids), size=256)
        jj = rng.integers(len(ids), size=256)
        want = plain.route_many(cp[ii], cp[jj], RelayType.COR, 3)
        got = unified.route_many(cu[ii], cu[jj], RelayType.COR, 3)
        assert np.array_equal(got.tier, want.tier)
        assert np.array_equal(
            got.reduction_ms, want.reduction_ms, equal_nan=True
        )

    def test_empty_input_rejected(self):
        with pytest.raises(ServiceError):
            cross_world_service([])

    def test_cluster_serves_unified_world(self, small_campaign_result):
        service, _, _ = cross_world_service(
            [small_campaign_result, small_campaign_result]
        )
        config = LoadgenConfig(num_queries=2048, batch_size=512)
        want = replay(service, config)
        with ClusterService.from_service(service, workers=2) as cluster:
            got = replay(cluster, config)
        assert got.answers_digest == want.answers_digest
