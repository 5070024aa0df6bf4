"""Tests for the serving layer (:mod:`repro.service`).

The contract under test: directory compilation is deterministic (same
input, byte-identical snapshot), batched and scalar queries agree,
incremental ingestion is byte-identical to a full recompile, snapshots
round-trip exactly, and the load generator's query stream is invariant in
the worker count.
"""

from __future__ import annotations

import hashlib
import io
import re

import numpy as np
import pytest

from repro.core.oracle import LaneHistory
from repro.core.table import ObservationTable
from repro.core.types import RELAY_TYPE_ORDER, RelayType
from repro.errors import EmptyDirectoryError, ServiceError, UnknownEndpointError
from repro.service import (
    TIER_COUNTRY,
    TIER_DIRECT,
    TIER_NAMES,
    TIER_PAIR,
    LaneBlock,
    LoadgenConfig,
    QueryStream,
    RelayDirectory,
    ShortcutService,
    replay,
)

#: Answers of the ``service`` fixture over every ``(src, dst)`` cell of its
#: endpoint codes, -1 included: a BLAKE2 digest of relay ids, reductions
#: and tiers per relay type and k.  Recorded before the slot-index lookup
#: existed, so they pin the answers independently of it.
GOLDEN_GRID_DIGESTS = {
    ("COR", 1): "625666d369d67a22ac5afaaee33d4ece",
    ("COR", 3): "208dcd14b1bb50aacafed1387c83d096",
    ("COR", 16): "fe634f9934e80e2df85dcb14e21036a0",
    ("PLR", 1): "d0df84b8af1b35b42a24793becfe408f",
    ("PLR", 3): "3c05fb050c83def174517c463a24672a",
    ("PLR", 16): "e135e4186b7c92160a331d03e78c231f",
    ("RAR_OTHER", 1): "3f2d08ed6d5ab27e9f8d266ff45521b4",
    ("RAR_OTHER", 3): "5713e310852cc8bdee8f1ddb666bd0e9",
    ("RAR_OTHER", 16): "c6db150d76dc95434e6ff3f010aba009",
    ("RAR_EYE", 1): "e90c39131e9c9cb6d3e040860d0e6ced",
    ("RAR_EYE", 3): "5d23e7cc45ccaf1f91ac7be7a40b32e2",
    ("RAR_EYE", 16): "555b1a576cf38cf14f0ca4c87bd90cbb",
}
#: The same grid through the liveness-guarded path (``liveness_rounds=1``),
#: k = 1, 3 and 16 in turn per relay type, and the degradation counters
#: one guarded service accumulates over all four types.
GOLDEN_GUARDED_DIGESTS = {
    "COR": "f910b3c1e79bcec9dac980e96ba63a14",
    "PLR": "d037337c1d00827d7e834471dfc8fdab",
    "RAR_OTHER": "f7c47467ac2d1efe4f033809a20f638c",
    "RAR_EYE": "16233cd12a944dddd4ac71dcd35eaef9",
}
GOLDEN_GUARDED_COUNTERS = {
    "queries": 5808,
    "stale_top_answers": 1164,
    "candidates_evicted": 3916,
    "unanswerable": 580,
    "fallback_country": 694,
    "direct": 3142,
}
#: BLAKE2 digest of the fixture's snapshot bytes (format v4).
GOLDEN_V4_SNAPSHOT = "5ef23093ca28645d208c1690d5e66d08"


@pytest.fixture(scope="module")
def service(small_campaign_result):
    return ShortcutService.from_campaign(small_campaign_result)


def _snapshot_bytes(svc: ShortcutService) -> bytes:
    buffer = io.BytesIO()
    svc.save(buffer)
    return buffer.getvalue()


def _unpack(key: int) -> tuple[int, int]:
    return int(key) >> 32, int(key) & 0xFFFFFFFF


def _blake(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _grid(directory: RelayDirectory) -> tuple[np.ndarray, np.ndarray]:
    """Every ``(src, dst)`` pair of endpoint codes, -1 included."""
    codes = np.arange(-1, len(directory.endpoint_ids()), dtype=np.int64)
    src, dst = np.meshgrid(codes, codes, indexing="ij")
    return src.ravel(), dst.ravel()


def _grid_digest(svc, relay_type: RelayType, ks) -> str:
    src, dst = _grid(svc.directory)
    digest = hashlib.blake2b(digest_size=16)
    for k in ks:
        batch = svc.route_many(src, dst, relay_type, k)
        assert batch.relay_ids.dtype == np.int32
        assert batch.reduction_ms.dtype == np.float64
        assert batch.tier.dtype == np.int8
        for arr in (batch.relay_ids, batch.reduction_ms, batch.tier):
            digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def _all_blocks(directory: RelayDirectory, tiers=(TIER_PAIR, TIER_COUNTRY)):
    return {
        (tier, code): directory.block(tier, relay_type)
        for tier in tiers
        for code, relay_type in enumerate(RELAY_TYPE_ORDER)
    }


def _lane_row(block, key: int) -> int:
    pos = int(np.searchsorted(block.keys, key))
    return pos if pos < block.num_lanes and int(block.keys[pos]) == key else -1


def _assert_same_answers(a, b) -> None:
    assert np.array_equal(a.relay_ids, b.relay_ids)
    assert np.array_equal(a.reduction_ms, b.reduction_ms, equal_nan=True)
    assert np.array_equal(a.tier, b.tier)


def _answers_by_ids(svc, ids, relay_type, k=3):
    codes = svc.encode_endpoints(ids)
    src, dst = np.meshgrid(codes, codes, indexing="ij")
    return svc.route_many(src.ravel(), dst.ravel(), relay_type, k)


class TestDirectoryCompile:
    def test_snapshot_deterministic(self, small_campaign_result):
        a = ShortcutService.from_campaign(small_campaign_result)
        b = ShortcutService.from_campaign(small_campaign_result)
        assert _snapshot_bytes(a) == _snapshot_bytes(b)
        assert a.directory.block_signature() == b.directory.block_signature()

    def test_from_table_equals_from_result(self, small_campaign_result, service):
        from_table = ShortcutService.from_table(small_campaign_result.table)
        assert (
            from_table.directory.block_signature()
            == service.directory.block_signature()
        )
        assert _snapshot_bytes(from_table) == _snapshot_bytes(service)

    def test_lanes_are_sorted_and_ranked(self, service):
        checked = 0
        for tier in (TIER_PAIR, TIER_COUNTRY):
            for relay_type in RELAY_TYPE_ORDER:
                block = service.directory.block(tier, relay_type)
                if block.num_lanes == 0:
                    continue
                checked += 1
                assert np.all(np.diff(block.keys) > 0), "lane keys not sorted"
                assert block.indptr[0] == 0
                assert block.indptr[-1] == block.relays.size
                lengths = np.diff(block.indptr)
                assert np.all(lengths > 0), "empty lane compiled"
                for lane in range(block.num_lanes):
                    lo, hi = int(block.indptr[lane]), int(block.indptr[lane + 1])
                    order = [
                        (-int(c), int(r))
                        for c, r in zip(block.counts[lo:hi], block.relays[lo:hi])
                    ]
                    assert order == sorted(order), "lane not (-count, relay) ranked"
        assert checked > 0

    def test_country_ranking_matches_lane_history(
        self, small_campaign_result, service
    ):
        """The country tier is the VIA predictor: same ranking as
        :class:`LaneHistory` (golden-pinned in test_oracle_multihop) for
        every lane."""
        history = LaneHistory.from_table(small_campaign_result.table, RelayType.COR)
        directory = service.directory
        block = directory.block(TIER_COUNTRY, RelayType.COR)
        names = directory.countries()
        assert block.num_lanes == history.num_lanes > 0
        for lane in range(block.num_lanes):
            start = int(block.indptr[lane])
            ranked = block.relays[start:int(block.indptr[lane + 1])][:5]
            lo, hi = _unpack(block.keys[lane])
            assert ranked.tolist() == history.predict_ccs(names[lo], names[hi], 5)

    def test_expected_reduction_is_mean_gain(self, small_campaign_result, service):
        """Reductions equal the mean observed improvement per (lane, relay)."""
        directory = service.directory
        block = directory.block(TIER_COUNTRY, RelayType.COR)
        observed: dict[tuple[str, str, int], list[float]] = {}
        for obs in small_campaign_result.observations():
            cc = tuple(sorted((obs.e1_cc, obs.e2_cc)))
            for relay, gain in obs.improving_by_type.get(RelayType.COR, ()):
                observed.setdefault((*cc, relay), []).append(gain)
        names = directory.countries()
        for lane in range(block.num_lanes):
            lo, hi = _unpack(block.keys[lane])
            cc = tuple(sorted((names[lo], names[hi])))
            for pos in range(int(block.indptr[lane]), int(block.indptr[lane + 1])):
                gains = observed[(*cc, int(block.relays[pos]))]
                assert len(gains) == int(block.counts[pos])
                assert block.reduction_ms[pos] == pytest.approx(
                    sum(gains) / len(gains), rel=1e-12
                )

    def test_lookup_index_bytes(self, small_campaign_result):
        """Indexes are built per queried relay type, once, and dropped
        when the compiled blocks change."""
        svc = ShortcutService.from_campaign(small_campaign_result)
        directory = svc.directory
        assert directory.stats()["lookup_index_bytes"] == 0
        src, dst = _grid(directory)
        side = len(directory.endpoint_ids()) + 1
        expected = 0
        for relay_type in (RelayType.COR, RelayType.PLR):
            svc.route_many(src, dst, relay_type, 3)
            pair = directory.block(TIER_PAIR, relay_type)
            country = directory.block(TIER_COUNTRY, relay_type)
            slots = pair.num_lanes + country.num_lanes
            entries = pair.relays.size + country.relays.size
            # slot array + indptr + relays/reductions + per-slot tiers
            expected += 4 * side**2 + 8 * (slots + 1) + 12 * entries + slots + 1
            assert directory.stats()["lookup_index_bytes"] == expected
        svc.route_many(src, dst, RelayType.COR, 16)
        assert directory.stats()["lookup_index_bytes"] == expected
        directory.recompile()
        assert directory.stats()["lookup_index_bytes"] == 0

    def test_stats_shape(self, service):
        stats = service.stats()
        assert stats["endpoints"] > 0
        assert stats["countries"] > 1
        assert stats["retained_rounds"] == [0, 1, 2]
        assert stats["lanes_pair_COR"] > 0


class TestQueries:
    def test_batched_matches_scalar(self, service):
        ids = service.directory.endpoint_ids()
        codes = service.encode_endpoints(ids)
        rng = np.random.default_rng(7)
        src = rng.choice(codes, 100)
        dst = rng.choice(codes, 100)
        for relay_type in RELAY_TYPE_ORDER:
            batch = service.route_many(src, dst, relay_type, k=3)
            for i in range(100):
                decision = service.route(
                    ids[src[i]], ids[dst[i]], relay_type, k=3
                )
                valid = batch.relay_ids[i] >= 0
                assert decision.relay_ids == tuple(
                    int(r) for r in batch.relay_ids[i][valid]
                )
                assert decision.reduction_ms == tuple(
                    float(g) for g in batch.reduction_ms[i][valid]
                )
                assert decision.tier == TIER_NAMES[int(batch.tier[i])]

    def test_exact_pair_tier(self, small_campaign_result, service):
        for obs in small_campaign_result.observations():
            if obs.improving_by_type.get(RelayType.COR):
                decision = service.route(obs.e1_id, obs.e2_id, RelayType.COR)
                assert decision.tier == "pair"
                assert decision.relay_id is not None
                assert decision.expected_reduction_ms > 0
                return
        pytest.skip("no COR-improved case in the fixture")

    def test_country_fallback_tier(self, small_campaign_result, service):
        """A pair never measured together falls back to its country lane."""
        directory = service.directory
        block = directory.block(TIER_PAIR, RelayType.COR)
        measured = set(int(k) for k in block.keys)
        ids = directory.endpoint_ids()
        codes = directory.encode_endpoints(ids)
        cc = directory.endpoint_country_codes()
        cc_block = directory.block(TIER_COUNTRY, RelayType.COR)
        cc_lanes = set(int(k) for k in cc_block.keys)
        for i in range(len(ids)):
            for j in range(len(ids)):
                a, b = int(codes[i]), int(codes[j])
                if a == b:
                    continue
                pair_key = (min(a, b) << 32) | max(a, b)
                cc_key = (
                    min(int(cc[a]), int(cc[b])) << 32
                ) | max(int(cc[a]), int(cc[b]))
                if pair_key not in measured and cc_key in cc_lanes:
                    decision = service.route(ids[i], ids[j], RelayType.COR)
                    assert decision.tier == "country"
                    assert decision.relay_id is not None
                    return
        pytest.skip("every endpoint pair has exact history in the fixture")

    def test_unknown_endpoint_is_direct(self, service):
        known = service.directory.endpoint_ids()[0]
        decision = service.route("no-such-probe", known, RelayType.COR)
        assert decision.tier == "direct"
        assert decision.relay_id is None
        assert decision.expected_reduction_ms is None

    def test_same_endpoint_is_direct(self, service):
        ep = service.directory.endpoint_ids()[0]
        assert service.route(ep, ep, RelayType.COR).tier == "direct"

    def test_large_k_pads(self, service):
        ids = service.directory.endpoint_ids()
        codes = service.encode_endpoints(ids[:4])
        batch = service.route_many(codes[:2], codes[2:], RelayType.COR, k=64)
        assert batch.relay_ids.shape == (2, 64)
        padding = batch.relay_ids == -1
        assert np.isnan(batch.reduction_ms[padding]).all()

    def test_k_validation(self, service):
        with pytest.raises(ServiceError):
            service.route_many(np.zeros(1, np.int64), np.ones(1, np.int64),
                               RelayType.COR, k=0)

    def test_shape_validation(self, service):
        with pytest.raises(ServiceError):
            service.route_many(np.zeros(2, np.int64), np.zeros(3, np.int64),
                               RelayType.COR, k=1)

    def test_route_batch_helpers(self, service):
        ids = service.directory.endpoint_ids()
        codes = service.encode_endpoints(ids)
        batch = service.route_many(
            codes[:-1], codes[1:], RelayType.COR, k=2
        )
        counts = batch.tier_counts()
        assert sum(counts.values()) == len(batch)
        assert 0.0 <= batch.relay_answer_fraction() <= 1.0
        assert batch.best_relay.shape == (len(batch),)


class TestGoldenAnswers:
    @pytest.mark.parametrize("key", sorted(GOLDEN_GRID_DIGESTS))
    def test_grid_digest(self, service, key):
        relay_type = RelayType[key[0]]
        assert _grid_digest(service, relay_type, (key[1],)) == (
            GOLDEN_GRID_DIGESTS[key]
        )

    def test_guarded_grid_digests_and_counters(self, service):
        guarded = ShortcutService.from_directory(
            service.directory, liveness_rounds=1
        )
        for relay_type in RELAY_TYPE_ORDER:
            assert _grid_digest(guarded, relay_type, (1, 3, 16)) == (
                GOLDEN_GUARDED_DIGESTS[relay_type.value]
            )
        assert guarded.degradation_summary() == GOLDEN_GUARDED_COUNTERS


class TestLookupEdges:
    def test_unknown_and_same_endpoint_are_direct(self, service):
        n = len(service.directory.endpoint_ids())
        src = np.array([-1, 0, -1, 3, n - 1, 5], np.int64)
        dst = np.array([0, -1, -1, 3, n - 1, 5], np.int64)
        for relay_type in RELAY_TYPE_ORDER:
            batch = service.route_many(src, dst, relay_type, k=4)
            assert np.all(batch.tier == TIER_DIRECT)
            assert np.all(batch.relay_ids == -1)
            assert np.isnan(batch.reduction_ms).all()

    def test_endpoint_without_country_skips_country_tier(self, service):
        """An endpoint whose country is unknown still resolves through its
        pair lanes, and otherwise goes direct, never to a country lane."""
        directory = service.directory
        base_cc = directory.endpoint_country_codes()
        n = base_cc.size
        codes = np.arange(n, dtype=np.int64)
        pair_hits = country_lost = 0
        for x in range(n):
            cc = base_cc.copy()
            cc[x] = -1
            view = ShortcutService.from_directory(
                RelayDirectory.segment_view(
                    blocks=_all_blocks(directory), endpoint_cc=cc
                )
            )
            src = np.concatenate([np.full(n, x), codes])
            dst = np.concatenate([codes, np.full(n, x)])
            for relay_type in RELAY_TYPE_ORDER:
                want = service.route_many(src, dst, relay_type, 3)
                got = view.route_many(src, dst, relay_type, 3)
                via_pair = want.tier == TIER_PAIR
                assert np.array_equal(got.tier[via_pair], want.tier[via_pair])
                assert np.array_equal(
                    got.relay_ids[via_pair], want.relay_ids[via_pair]
                )
                assert np.all(got.tier[~via_pair] == TIER_DIRECT)
                assert np.all(got.relay_ids[~via_pair] == -1)
                pair_hits += int(via_pair.sum())
                country_lost += int(np.count_nonzero(want.tier == TIER_COUNTRY))
        assert pair_hits > 0 and country_lost > 0

    def test_hand_built_lanes_resolve_by_priority(self):
        """Pair lane over country lane, and a same-country lane never
        answers an endpoint's query to itself."""
        pack = ObservationTable.pack_pairs
        pair = LaneBlock(
            keys=pack(np.array([0]), np.array([1])),
            indptr=np.array([0, 2]),
            relays=np.array([4, 5], np.int32),
            counts=np.array([2, 1], np.int32),
            reduction_ms=np.array([9.0, 8.0]),
        )
        country = LaneBlock(
            keys=pack(np.array([0]), np.array([0])),
            indptr=np.array([0, 1]),
            relays=np.array([7], np.int32),
            counts=np.array([1], np.int32),
            reduction_ms=np.array([3.0]),
        )
        view = RelayDirectory.segment_view(
            blocks={
                (TIER_PAIR, 0): pair,
                (TIER_COUNTRY, 0): country,
            },
            endpoint_cc=np.array([0, 0, 0, -1], np.int32),
        )
        src = np.array([0, 1, 0, 2, 0, 2, 3, -1], np.int64)
        dst = np.array([1, 0, 2, 1, 0, 2, 0, 1], np.int64)
        relays, reductions, tier = view.lookup_many(src, dst, RelayType.COR, 2)
        assert tier.tolist() == [
            TIER_PAIR, TIER_PAIR, TIER_COUNTRY, TIER_COUNTRY,
            TIER_DIRECT, TIER_DIRECT, TIER_DIRECT, TIER_DIRECT,
        ]
        assert relays.tolist() == [
            [4, 5], [4, 5], [7, -1], [7, -1],
            [-1, -1], [-1, -1], [-1, -1], [-1, -1],
        ]
        assert reductions[:2].tolist() == [[9.0, 8.0], [9.0, 8.0]]
        assert reductions[2, 0] == 3.0 and np.isnan(reductions[2:, 1]).all()
        other_type = view.lookup_many(src, dst, RelayType.PLR, 2)
        assert np.all(other_type[2] == TIER_DIRECT)

    def test_k_beyond_longest_lane_pads(self, service):
        directory = service.directory
        src, dst = _grid(directory)
        for relay_type in RELAY_TYPE_ORDER:
            longest = max(
                int(np.diff(directory.block(tier, relay_type).indptr).max(initial=0))
                for tier in (TIER_PAIR, TIER_COUNTRY)
            )
            exact = service.route_many(src, dst, relay_type, longest)
            wide = service.route_many(src, dst, relay_type, longest + 3)
            assert np.array_equal(wide.relay_ids[:, :longest], exact.relay_ids)
            assert np.array_equal(
                wide.reduction_ms[:, :longest], exact.reduction_ms, equal_nan=True
            )
            assert np.array_equal(wide.tier, exact.tier)
            assert np.all(wide.relay_ids[:, longest:] == -1)
            assert np.isnan(wide.reduction_ms[:, longest:]).all()
            assert np.any(exact.relay_ids[:, 1] >= 0)

    def test_country_only_directory(self, service):
        """With no pair lanes, every resolvable query is a country hit
        answered straight from its country lane's CSR."""
        directory = service.directory
        cc = directory.endpoint_country_codes()
        view = ShortcutService.from_directory(
            RelayDirectory.segment_view(
                blocks=_all_blocks(directory, tiers=(TIER_COUNTRY,)),
                endpoint_cc=cc,
            )
        )
        src, dst = _grid(directory)
        hits = 0
        for relay_type in RELAY_TYPE_ORDER:
            block = directory.block(TIER_COUNTRY, relay_type)
            batch = view.route_many(src, dst, relay_type, 4)
            for i, (a, b) in enumerate(zip(src.tolist(), dst.tolist())):
                row = -1
                if a >= 0 and b >= 0 and a != b:
                    lo, hi = sorted((int(cc[a]), int(cc[b])))
                    row = _lane_row(block, (lo << 32) | hi)
                if row < 0:
                    assert batch.tier[i] == TIER_DIRECT
                    assert np.all(batch.relay_ids[i] == -1)
                    continue
                hits += 1
                start, end = int(block.indptr[row]), int(block.indptr[row + 1])
                want = block.relays[start:end][:4]
                assert batch.tier[i] == TIER_COUNTRY
                assert batch.relay_ids[i, : want.size].tolist() == want.tolist()
                assert np.all(batch.relay_ids[i, want.size:] == -1)
                assert np.array_equal(
                    batch.reduction_ms[i, : want.size],
                    block.reduction_ms[start:end][:4],
                )
        assert hits > 0

    def test_error_messages(self, service):
        with pytest.raises(
            EmptyDirectoryError,
            match="^directory has no ingested history to resolve queries "
            "against$",
        ):
            RelayDirectory().lookup_many(
                np.zeros(1, np.int64), np.zeros(1, np.int64), RelayType.COR, 3
            )
        n = len(service.directory.endpoint_ids())
        with pytest.raises(
            UnknownEndpointError,
            match="^" + re.escape(
                f"endpoint codes [-2, 0, 1, {n}] outside the directory's known "
                f"range [-1, {n})"
            ) + "$",
        ):
            service.route_many(
                np.array([-2, 0], np.int64), np.array([1, n], np.int64),
                RelayType.COR, 3,
            )
        with pytest.raises(ServiceError, match="^k must be >= 1, got 0$"):
            service.directory.lookup_many(
                np.zeros(1, np.int64), np.zeros(1, np.int64), RelayType.COR, 0
            )
        with pytest.raises(ServiceError, match=re.escape("query shapes differ")):
            service.directory.lookup_many(
                np.zeros(2, np.int64), np.zeros(3, np.int64), RelayType.COR, 1
            )


class TestIngest:
    def test_answers_after_ingest_match_scratch_build(
        self, small_campaign_result
    ):
        rounds = small_campaign_result.rounds
        svc = ShortcutService.empty()
        svc.ingest_round(rounds[0])
        for relay_type in RELAY_TYPE_ORDER:  # query before the next ingest
            _grid_digest(svc, relay_type, (3,))
        svc.ingest_round(rounds[1])
        scratch = ShortcutService.from_campaign(
            small_campaign_result, rounds=rounds[:2]
        )
        assert svc.directory.endpoint_ids() == scratch.directory.endpoint_ids()
        src, dst = _grid(scratch.directory)
        for relay_type in RELAY_TYPE_ORDER:
            _assert_same_answers(
                svc.route_many(src, dst, relay_type, 3),
                scratch.route_many(src, dst, relay_type, 3),
            )

    def test_answers_after_eviction_match_scratch_build(
        self, small_campaign_result
    ):
        rounds = small_campaign_result.rounds
        svc = ShortcutService.empty(max_rounds=2)
        svc.ingest_round(rounds[0])
        svc.ingest_round(rounds[1])
        ids = svc.directory.endpoint_ids()
        before = {
            rt: _answers_by_ids(svc, ids, rt) for rt in RELAY_TYPE_ORDER
        }
        svc.ingest_round(rounds[2])  # evicts round 0
        scratch = ShortcutService.from_campaign(
            small_campaign_result, rounds=rounds[1:], max_rounds=2
        )
        # identities outlive the window by design, lanes decay: compare
        # over endpoints the scratch build knows a country for
        shared = [
            e for e in scratch.directory.endpoint_ids()
            if scratch.directory.country_of_code(
                scratch.directory.endpoint_code(e)
            ) is not None
        ]
        changed = False
        for relay_type in RELAY_TYPE_ORDER:
            got = _answers_by_ids(svc, shared, relay_type)
            _assert_same_answers(got, _answers_by_ids(scratch, shared, relay_type))
            after = _answers_by_ids(svc, ids, relay_type)
            changed |= not np.array_equal(
                after.relay_ids, before[relay_type].relay_ids
            )
        assert changed, "eviction changed no answer; the test proves nothing"

    def test_incremental_equals_full_recompile(self, small_campaign_result):
        svc = ShortcutService.empty(max_rounds=2)
        for rnd in small_campaign_result.rounds:
            svc.ingest_round(rnd)
        incremental = svc.directory.block_signature()
        incremental_bytes = _snapshot_bytes(svc)
        svc.directory.recompile()
        assert svc.directory.block_signature() == incremental
        assert _snapshot_bytes(svc) == incremental_bytes

    def test_window_answers_match_scratch_build(self, small_campaign_result):
        incremental = ShortcutService.empty(max_rounds=2)
        for rnd in small_campaign_result.rounds:
            incremental.ingest_round(rnd)
        scratch = ShortcutService.from_campaign(
            small_campaign_result,
            rounds=small_campaign_result.rounds[1:],
            max_rounds=2,
        )
        # compare over endpoints observed inside the window by both builds
        # (identity metadata persists across eviction by design; lanes decay)
        ids = sorted(
            e
            for e in set(incremental.directory.endpoint_ids())
            & set(scratch.directory.endpoint_ids())
            if scratch.directory.country_of_code(
                scratch.directory.endpoint_code(e)
            )
            is not None
        )
        ci = incremental.encode_endpoints(ids)
        cs = scratch.encode_endpoints(ids)
        rng = np.random.default_rng(3)
        ii = rng.integers(len(ids), size=400)
        jj = rng.integers(len(ids), size=400)
        for relay_type in RELAY_TYPE_ORDER:
            a = incremental.route_many(ci[ii], ci[jj], relay_type, 3)
            b = scratch.route_many(cs[ii], cs[jj], relay_type, 3)
            assert np.array_equal(a.relay_ids, b.relay_ids)
            assert np.array_equal(a.tier, b.tier)
            assert np.array_equal(a.reduction_ms, b.reduction_ms, equal_nan=True)

    def test_ttl_evicts_oldest(self, small_campaign_result):
        svc = ShortcutService.empty(max_rounds=2)
        for rnd in small_campaign_result.rounds:
            stats = svc.ingest_round(rnd)
        assert svc.directory.retained_rounds() == [1, 2]
        assert stats["evicted_rounds"] == 1

    def test_round_order_enforced(self, small_campaign_result):
        svc = ShortcutService.empty()
        svc.ingest_round(small_campaign_result.rounds[1])
        with pytest.raises(ServiceError):
            svc.ingest_round(small_campaign_result.rounds[0])
        with pytest.raises(ServiceError):
            svc.ingest_round(small_campaign_result.rounds[1])

    def test_multi_round_table_needs_round_id(self, small_campaign_result):
        directory = RelayDirectory()
        with pytest.raises(ServiceError):
            directory.ingest_round(small_campaign_result.table)
        directory.ingest_round(small_campaign_result.table, round_id=0)
        assert directory.retained_rounds() == [0]

    def test_constructor_validation(self):
        with pytest.raises(ServiceError):
            RelayDirectory(max_rounds=0)
        with pytest.raises(ServiceError):
            ShortcutService.empty(k=0)
        with pytest.raises(ServiceError):
            ShortcutService.empty(liveness_rounds=0)
        with pytest.raises(ServiceError):
            ShortcutService.empty(spill=-1)


class TestSnapshot:
    def test_roundtrip_identical(self, service):
        data = _snapshot_bytes(service)
        restored = ShortcutService.load(io.BytesIO(data))
        assert (
            restored.directory.block_signature()
            == service.directory.block_signature()
        )
        assert _snapshot_bytes(restored) == data

    def test_roundtrip_answers(self, service):
        restored = ShortcutService.load(io.BytesIO(_snapshot_bytes(service)))
        codes = service.encode_endpoints(service.directory.endpoint_ids())
        assert np.array_equal(
            codes, restored.encode_endpoints(restored.directory.endpoint_ids())
        )
        batch_a = service.route_many(codes[:-1], codes[1:], RelayType.COR, 3)
        batch_b = restored.route_many(codes[:-1], codes[1:], RelayType.COR, 3)
        assert np.array_equal(batch_a.relay_ids, batch_b.relay_ids)
        assert np.array_equal(
            batch_a.reduction_ms, batch_b.reduction_ms, equal_nan=True
        )
        assert np.array_equal(batch_a.tier, batch_b.tier)

    def test_roundtrip_keeps_ingesting(self, small_campaign_result):
        """A restored service continues incremental ingestion seamlessly."""
        svc = ShortcutService.from_campaign(
            small_campaign_result, rounds=small_campaign_result.rounds[:-1]
        )
        restored = ShortcutService.load(io.BytesIO(_snapshot_bytes(svc)))
        restored.ingest_round(small_campaign_result.rounds[-1])
        reference = ShortcutService.from_campaign(small_campaign_result)
        assert (
            restored.directory.block_signature()
            == reference.directory.block_signature()
        )

    def test_snapshot_bytes_golden_after_queries(self, service):
        for relay_type in RELAY_TYPE_ORDER:
            _grid_digest(service, relay_type, (3,))
        assert _blake(_snapshot_bytes(service)) == GOLDEN_V4_SNAPSHOT

    def test_unknown_version_rejected(self, service):
        data = np.load(io.BytesIO(_snapshot_bytes(service)))
        arrays = {name: data[name] for name in data.files}
        arrays["meta"] = np.asarray([99, -1], np.int64)
        bad = io.BytesIO()
        np.savez(bad, **arrays)
        bad.seek(0)
        with pytest.raises(ServiceError):
            ShortcutService.load(bad)


class TestLoadgen:
    def test_stream_invariant_in_worker_count(self, service):
        base = LoadgenConfig(num_queries=10_000, seed=5)
        src1, dst1 = QueryStream(service.directory, base).generate()
        many = LoadgenConfig(num_queries=10_000, seed=5, workers=4)
        src4, dst4 = QueryStream(service.directory, many).generate()
        assert np.array_equal(src1, src4)
        assert np.array_equal(dst1, dst4)

    def test_replay_digest_invariant_in_worker_count(self, service):
        a = replay(service, LoadgenConfig(num_queries=6_000, workers=1))
        b = replay(service, LoadgenConfig(num_queries=6_000, workers=3))
        assert a.answers_digest == b.answers_digest
        assert a.tier_counts == b.tier_counts

    def test_replay_digest_depends_on_seed(self, service):
        a = replay(service, LoadgenConfig(num_queries=4_000, seed=1))
        b = replay(service, LoadgenConfig(num_queries=4_000, seed=2))
        assert a.answers_digest != b.answers_digest

    def test_zipf_skews_toward_populous_countries(self, service):
        directory = service.directory
        stream = QueryStream(
            directory, LoadgenConfig(num_queries=20_000, zipf_exponent=1.4)
        )
        src, dst = stream.generate()
        cc = directory.endpoint_country_codes()
        counts = np.bincount(
            np.concatenate([cc[src], cc[dst]]), minlength=len(directory.countries())
        )
        population = np.bincount(cc[cc >= 0], minlength=len(directory.countries()))
        active = np.flatnonzero(population > 0)
        head = active[np.argmax(population[active])]
        assert counts[head] >= counts[active].mean()

    def test_queries_target_known_endpoints(self, service):
        src, dst = QueryStream(
            service.directory, LoadgenConfig(num_queries=2_000)
        ).generate()
        n = len(service.directory.endpoint_ids())
        for arr in (src, dst):
            assert arr.min() >= 0
            assert arr.max() < n
        # countries differ, so endpoints always differ
        assert np.all(src != dst)

    def test_replay_stats_shape(self, service):
        stats = replay(service, LoadgenConfig(num_queries=3_000, batch_size=256))
        assert stats.queries == 3_000
        assert stats.batches == 12
        assert sum(stats.tier_counts.values()) == 3_000
        assert 0.0 <= stats.relay_answer_frac <= 1.0
        assert stats.queries_per_s is None or stats.queries_per_s > 0
        assert 0.0 < stats.latency_p50_ms <= stats.latency_p99_ms
        assert stats.as_dict()["latency_p99_ms"] == stats.latency_p99_ms

    def test_config_validation(self):
        for bad in (
            {"num_queries": 0},
            {"batch_size": 0},
            {"zipf_exponent": 0.0},
            {"k": 0},
            {"workers": 0},
        ):
            with pytest.raises(ServiceError):
                LoadgenConfig(**bad)

    def test_empty_directory_rejected(self):
        with pytest.raises(ServiceError):
            QueryStream(RelayDirectory(), LoadgenConfig(num_queries=10))


class TestTierConstants:
    def test_tier_order(self):
        assert TIER_NAMES[TIER_PAIR] == "pair"
        assert TIER_NAMES[TIER_COUNTRY] == "country"
        assert TIER_NAMES[TIER_DIRECT] == "direct"
