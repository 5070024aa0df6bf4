"""The relay directory: campaign observations compiled for online lookup.

The offline campaign answers "which relays improved which pairs"; a
serving layer needs the transpose — "given a pair, which relay should
carry the next call" — answered in microseconds, refreshed as new rounds
arrive, and restartable from a snapshot.  :class:`RelayDirectory` is that
structure: every retained measurement round is reduced to per-*lane*
relay statistics (a lane is a canonical unordered endpoint or country
pair, packed into one int64 key), and the retained rounds are merged into
dense ranked lookup blocks:

* **pair tier** — lanes keyed by endpoint pair: the exact-history answer;
* **country tier** — lanes keyed by country pair: the VIA-style fallback
  (the same ``(-count, relay)`` ranking
  :class:`~repro.core.oracle.LaneHistory` computes, plus the mean observed
  RTT reduction per relay as the expected gain);
* **direct tier** — no history at all: the caller keeps the direct path.

Incremental ingestion (:meth:`ingest_round`) recompiles only *touched*
lanes — lanes the new round observed plus lanes that lost a round to the
retention window (``max_rounds``, the staleness TTL) — and splices them
into the compiled blocks; the result is byte-identical to recompiling the
whole directory from the retained rounds, because every lane's statistics
are reduced from the same per-round rows in the same ascending-round
order either way (asserted in ``tests/test_service.py``).

Queries resolve through a per-relay-type **slot index**, compiled from
the blocks by the first lookup of that type: one dense ``int32`` array
with a cell per ``(src, dst)`` endpoint-code pair (the unknown code -1
has its own row and column) holding the pair lane, else the country
lane, else the direct sentinel, beside one CSR concatenating the two
tiers' ranked entries.  A batch is then one slot gather, one
:func:`~repro.core.oracle.csr_top_k` and one tier gather.  The slot
array costs ``4·(E+1)²`` bytes per queried type for E endpoints, and
the CSR copy 12 bytes per entry (``stats()["lookup_index_bytes"]``).
The index is derived state: any change to the blocks or the endpoint
pool drops it, and it is never persisted.

Snapshots (:meth:`save` / :meth:`load`) are a single uncompressed
``.npz`` of flat arrays in one format (version :data:`SNAPSHOT_VERSION`):
the *base* arrays — string pools, per-round lane rows, relay health and
the retention configuration — followed by the compiled lane blocks.
Loading rebuilds from the base arrays and recompiles, so a restored
directory is bit-identical to the one that saved it; the serving
cluster instead maps the block arrays straight off disk
(:func:`repro.service.cluster.load_cluster_snapshot`).  Every reader
goes through :func:`read_snapshot`, which turns any defective file
(missing, not a zip, truncated, missing members, another version) into
a :class:`~repro.errors.ServiceError` naming it.
"""

from __future__ import annotations

import os
import zipfile
from dataclasses import dataclass
from typing import IO, Any

import numpy as np

from repro import obs
from repro.core.oracle import csr_top_k, rank_lane_entries
from repro.core.results import RoundResult
from repro.core.table import NUM_RELAY_TYPES, Interner, ObservationTable
from repro.core.types import RELAY_TYPE_ORDER, RelayType
from repro.errors import (
    EmptyDirectoryError,
    ServiceError,
    UnknownCountryError,
    UnknownEndpointError,
)
from repro.util.npz import mmap_npz

#: Fallback tiers a query resolves through, in preference order.
TIER_PAIR = 0
TIER_COUNTRY = 1
TIER_DIRECT = 2
TIER_NAMES = ("pair", "country", "direct")

#: Snapshot format version (bumped on incompatible layout changes).  v2
#: added the relay last-seen arrays that back churn-aware health, v4 the
#: compiled lane blocks; no other version can be read.
SNAPSHOT_VERSION = 4

#: Members every snapshot carries besides ``meta`` and the per-round rows.
_BASE_MEMBERS = (
    "endpoints",
    "countries",
    "endpoint_cc",
    "round_ids",
    "relay_seen_ids",
    "relay_seen_rounds",
)

_TIERS = (TIER_PAIR, TIER_COUNTRY)

#: Canonical unordered-pair key packing — the table's, so directory lane
#: keys and table lane keys can never drift apart.
_pack = ObservationTable.pack_pairs


@dataclass(frozen=True, slots=True)
class LaneBlock:
    """One tier's compiled lanes: a CSR of ranked relay candidates.

    Attributes:
        keys: ``(L,) int64`` sorted canonical lane keys.
        indptr: ``(L+1,) int64`` CSR pointer into the entry arrays.
        relays: ``(E,) int32`` relay registry indices, ranked
            ``(-count, relay)`` within each lane.
        counts: ``(E,) int32`` improvement count behind each entry.
        reduction_ms: ``(E,) float64`` mean observed RTT reduction of the
            relay on the lane (the "expected gain" a query returns).
    """

    keys: np.ndarray
    indptr: np.ndarray
    relays: np.ndarray
    counts: np.ndarray
    reduction_ms: np.ndarray

    @classmethod
    def empty(cls) -> LaneBlock:
        return cls(
            keys=np.zeros(0, np.int64),
            indptr=np.zeros(1, np.int64),
            relays=np.zeros(0, np.int32),
            counts=np.zeros(0, np.int32),
            reduction_ms=np.zeros(0, float),
        )

    @classmethod
    def from_rows(
        cls,
        lanes: np.ndarray,
        relays: np.ndarray,
        counts: np.ndarray,
        gains: np.ndarray,
    ) -> LaneBlock:
        """Compile occurrence rows into ranked lanes.

        Rows may repeat a ``(lane, relay)`` across rounds; callers must
        order them round-ascending so the float gain sums accumulate in a
        fixed order (what makes incremental recompiles bit-identical to
        full ones).  Reduction and ranking run through the oracle's shared
        :func:`~repro.core.oracle.rank_lane_entries` kernel, so the
        service ranks exactly as the history predictor does.
        """
        if lanes.size == 0:
            return cls.empty()
        keys, indptr, ranked_relays, ranked_counts, gain_sums = rank_lane_entries(
            lanes, relays, counts=counts, gains=gains
        )
        return cls(
            keys=keys,
            indptr=indptr,
            relays=ranked_relays,
            counts=ranked_counts,
            reduction_ms=gain_sums / ranked_counts,
        )

    @property
    def num_lanes(self) -> int:
        return self.keys.shape[0]

    def equal(self, other: LaneBlock) -> bool:
        """Exact array equality (used by the incremental-vs-full tests)."""
        return (
            np.array_equal(self.keys, other.keys)
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.relays, other.relays)
            and np.array_equal(self.counts, other.counts)
            and np.array_equal(self.reduction_ms, other.reduction_ms, equal_nan=True)
        )


@dataclass(frozen=True, slots=True)
class _SlotIndex:
    """One relay type's tier resolution, compiled for one gather per query.

    Attributes:
        slots: ``((E+1)**2,) int32`` answer slot per ``(src+1, dst+1)``
            cell, row-major; E is the directory's endpoint count and row
            and column 0 hold the unknown code -1.
        indptr: ``(S+1,) int64`` CSR pointer over the slots: the pair
            lanes, then the country lanes.  Slot -1 is the direct
            sentinel, which :func:`~repro.core.oracle.csr_top_k` answers
            with padding.
        relays: ``(N,) int32`` ranked relays of every slot, concatenated.
        reduction_ms: ``(N,) float64`` expected reductions, aligned.
        tiers: ``(S+1,) int8`` tier each slot answers from; the last
            entry is :data:`TIER_DIRECT`, so the sentinel -1 gathers it.
    """

    slots: np.ndarray
    indptr: np.ndarray
    relays: np.ndarray
    reduction_ms: np.ndarray
    tiers: np.ndarray

    @classmethod
    def build(
        cls, pair: LaneBlock, country: LaneBlock, endpoint_cc: np.ndarray
    ) -> _SlotIndex:
        """Resolve every endpoint pair through pair, country, then direct."""
        num_pair, num_cc = pair.num_lanes, country.num_lanes
        side = endpoint_cc.size + 1
        slots = np.full((side, side), -1, np.int32)
        inner = slots[1:, 1:]
        if num_cc:
            cc = endpoint_cc.astype(np.int64)
            keys = _pack(cc[:, np.newaxis], cc[np.newaxis, :])
            pos = np.minimum(np.searchsorted(country.keys, keys), num_cc - 1)
            known = cc >= 0
            hit = (
                (country.keys[pos] == keys)
                & known[:, np.newaxis]
                & known[np.newaxis, :]
            )
            inner[hit] = num_pair + pos[hit]
        if num_pair:
            lo = pair.keys >> 32
            hi = pair.keys & 0xFFFFFFFF
            rows = np.arange(num_pair, dtype=np.int32)
            inner[lo, hi] = rows
            inner[hi, lo] = rows
        np.fill_diagonal(inner, -1)
        tiers = np.full(num_pair + num_cc + 1, TIER_DIRECT, np.int8)
        tiers[:num_pair] = TIER_PAIR
        tiers[num_pair:-1] = TIER_COUNTRY
        return cls(
            slots=slots.ravel(),
            indptr=np.concatenate(
                (pair.indptr, country.indptr[1:] + pair.indptr[-1])
            ),
            relays=np.concatenate((pair.relays, country.relays)),
            reduction_ms=np.concatenate((pair.reduction_ms, country.reduction_ms)),
            tiers=tiers,
        )

    @property
    def nbytes(self) -> int:
        return sum(
            arr.nbytes
            for arr in (
                self.slots, self.indptr, self.relays, self.reduction_ms,
                self.tiers,
            )
        )


def validate_query_codes(
    src_codes: np.ndarray, dst_codes: np.ndarray, known: int
) -> tuple[np.ndarray, np.ndarray]:
    """Check a query batch against a directory's known endpoint range.

    Shared by :meth:`RelayDirectory.lookup_many` and the cluster front
    (which validates *before* dispatching to its workers), so both
    paths reject malformed batches with identical errors.  Returns the
    queries as parallel ``int64`` arrays.

    Raises:
        ServiceError: on mismatched / non-1D query shapes.
        EmptyDirectoryError: when ``known`` is 0 — no ingested history.
        UnknownEndpointError: for codes outside ``[-1, known)``; those
            are caller bugs, not unobserved endpoints.
    """
    src = np.asarray(src_codes, np.int64)
    dst = np.asarray(dst_codes, np.int64)
    if src.shape != dst.shape or src.ndim != 1:
        raise ServiceError(
            f"query shapes differ: {src.shape} vs {dst.shape}"
        )
    if known == 0:
        raise EmptyDirectoryError(
            "directory has no ingested history to resolve queries against"
        )
    out_of_range = (src < -1) | (src >= known) | (dst < -1) | (dst >= known)
    if out_of_range.any():
        bad = np.unique(
            np.concatenate([src[out_of_range], dst[out_of_range]])
        )
        raise UnknownEndpointError(
            f"endpoint codes {bad.tolist()[:8]} outside the directory's "
            f"known range [-1, {known})"
        )
    return src, dst


def _merge_blocks(
    old: LaneBlock, fresh: LaneBlock, touched: np.ndarray
) -> LaneBlock:
    """Splice recompiled ``touched`` lanes into an existing block.

    ``fresh`` holds the recomputed versions of every touched lane that
    still has entries (a touched lane whose rounds were all evicted simply
    disappears).  Untouched lanes keep their exact arrays.
    """
    keep = ~np.isin(old.keys, touched)
    src_keys = np.concatenate([old.keys[keep], fresh.keys])
    order = np.argsort(src_keys, kind="stable")
    old_lengths = np.diff(old.indptr)
    src_lengths = np.concatenate([old_lengths[keep], np.diff(fresh.indptr)])[order]
    src_starts = np.concatenate(
        [old.indptr[:-1][keep], fresh.indptr[:-1] + old.relays.size]
    )[order]
    indptr = np.concatenate(([0], np.cumsum(src_lengths))).astype(np.int64)
    total = int(indptr[-1])
    gather = (
        np.repeat(src_starts, src_lengths)
        + np.arange(total)
        - np.repeat(indptr[:-1], src_lengths)
    )
    relays = np.concatenate([old.relays, fresh.relays])[gather]
    counts = np.concatenate([old.counts, fresh.counts])[gather]
    reduction = np.concatenate([old.reduction_ms, fresh.reduction_ms])[gather]
    return LaneBlock(
        keys=src_keys[order],
        indptr=indptr,
        relays=relays.astype(np.int32),
        counts=counts.astype(np.int32),
        reduction_ms=reduction,
    )


class RelayDirectory:
    """Compiled relay-lookup lanes over a window of measurement rounds.

    One directory serves one campaign's relay registry: relay ids in the
    compiled lanes are that campaign's registry indices.  Rounds must be
    ingested in ascending round order (the staleness window evicts from
    the front).
    """

    def __init__(self, max_rounds: int | None = None) -> None:
        if max_rounds is not None and max_rounds < 1:
            raise ServiceError(f"max_rounds must be >= 1, got {max_rounds}")
        self.max_rounds = max_rounds
        self._endpoints = Interner()
        self._countries = Interner()
        self._endpoint_cc = np.zeros(0, np.int32)
        # round id -> {(tier, type_code): (lane, relay, count, gain)} rows,
        # insertion order == ascending round id (enforced by ingest_round)
        self._rounds: dict[int, dict[tuple[int, int], tuple[np.ndarray, ...]]] = {}
        self._blocks: dict[tuple[int, int], LaneBlock] = {}
        # relay type code -> slot index over _blocks and _endpoint_cc, built
        # by the first lookup of that type; dropped whenever either changes
        self._lookup: dict[int, _SlotIndex] = {}
        # relay registry idx -> newest round id whose improving entries
        # contained it: the liveness signal behind stale_relay_mask.  Kept
        # across eviction (like endpoint identities) so health questions
        # about long-dark relays stay answerable.
        self._relay_last_seen: dict[int, int] = {}

    # ------------------------------------------------------------ constructors

    @classmethod
    def from_result(
        cls, result, max_rounds: int | None = None, rounds=None
    ) -> RelayDirectory:
        """Compile a directory from a campaign result's rounds.

        ``rounds`` restricts ingestion to a subset (e.g. all but the
        evaluation round); default is every round of the result.
        """
        directory = cls(max_rounds=max_rounds)
        with obs.span("service.directory.compile"):
            for rnd in result.rounds if rounds is None else rounds:
                directory.ingest_round(rnd)
        return directory

    @classmethod
    def from_table(
        cls, table: ObservationTable, max_rounds: int | None = None
    ) -> RelayDirectory:
        """Compile a directory from one concatenated campaign table.

        The sweep-artifact direction: the table's ``round_idx`` column
        splits it back into rounds, ingested in ascending round order.
        """
        directory = cls(max_rounds=max_rounds)
        with obs.span("service.directory.compile"):
            for round_id in table.round_values().tolist():
                directory.ingest_round(table, round_id=round_id)
        return directory

    # -------------------------------------------------------------- ingestion

    def ingest_round(
        self,
        source: RoundResult | ObservationTable,
        round_id: int | None = None,
    ) -> dict[str, int]:
        """Fold one measurement round into the directory.

        ``source`` is a campaign :class:`~repro.core.results.RoundResult`
        (round id implied) or an :class:`ObservationTable`; for a
        multi-round table, ``round_id`` selects the round to ingest.
        Recompiles only lanes the round touched (plus lanes evicted by the
        ``max_rounds`` window) and returns ingest statistics.

        Staleness: measurement-derived lanes decay with the window —
        evicting a round removes its contribution exactly — but *identity*
        metadata (endpoint ids and their countries) persists, like a
        user-directory cache would; an endpoint last measured in an
        evicted round still resolves through the country tier.

        Raises:
            ServiceError: on out-of-order or duplicate round ids.
        """
        with obs.span("service.directory.ingest"):
            stats = self._ingest_round(source, round_id)
        obs.inc("service.directory.ingested_rounds")
        obs.inc("service.directory.evicted_rounds", stats["evicted_rounds"])
        obs.inc("service.directory.touched_lanes", stats["touched_lanes"])
        return stats

    def _ingest_round(
        self,
        source: RoundResult | ObservationTable,
        round_id: int | None = None,
    ) -> dict[str, int]:
        self._lookup.clear()
        if isinstance(source, RoundResult):
            table = source.table
            rid = source.round_index if round_id is None else round_id
            mask = None
        else:
            table = source
            if round_id is None:
                present = table.round_values()
                if present.size != 1:
                    raise ServiceError(
                        f"table holds rounds {present.tolist()}; pass round_id"
                    )
                rid = int(present[0])
            else:
                rid = int(round_id)
            mask = table.round_mask(rid)
        if self._rounds and rid <= next(reversed(self._rounds)):
            raise ServiceError(
                f"round {rid} not after retained rounds {list(self._rounds)}"
            )

        ep_map, cc_map = self._register_pools(table)
        aggregate: dict[tuple[int, int], tuple[np.ndarray, ...]] = {}
        for type_code in range(NUM_RELAY_TYPES):
            cases, relays, gains = table.type_entries(type_code)
            if mask is not None and cases.size:
                keep = mask[cases]
                cases, relays, gains = cases[keep], relays[keep], gains[keep]
            if cases.size == 0:
                continue
            for tier in _TIERS:
                if tier == TIER_PAIR:
                    a = ep_map[table.e1_id[cases]]
                    b = ep_map[table.e2_id[cases]]
                else:
                    a = cc_map[table.e1_cc[cases]]
                    b = cc_map[table.e2_cc[cases]]
                aggregate[(tier, type_code)] = self._reduce_round_rows(
                    _pack(a, b), relays, gains
                )
        self._rounds[rid] = aggregate
        if aggregate:
            seen = np.unique(
                np.concatenate([rows[1] for rows in aggregate.values()])
            )
            for relay in seen.tolist():
                self._relay_last_seen[int(relay)] = rid

        evicted: list[dict[tuple[int, int], tuple[np.ndarray, ...]]] = []
        if self.max_rounds is not None:
            while len(self._rounds) > self.max_rounds:
                oldest = next(iter(self._rounds))
                evicted.append(self._rounds.pop(oldest))

        touched_keys = set(aggregate)
        for old in evicted:
            touched_keys |= set(old)
        entries = 0
        for tier, type_code in sorted(touched_keys):
            lanes = [
                agg[(tier, type_code)][0]
                for agg in [aggregate, *evicted]
                if (tier, type_code) in agg
            ]
            touched = np.unique(np.concatenate(lanes))
            entries += int(touched.size)
            self._recompute(tier, type_code, touched)
        return {
            "round_id": rid,
            "retained_rounds": len(self._rounds),
            "evicted_rounds": len(evicted),
            "touched_lanes": entries,
        }

    def _register_pools(
        self, table: ObservationTable
    ) -> tuple[np.ndarray, np.ndarray]:
        """Map a table's codes into directory codes; learn endpoint countries."""
        ep_map = self._endpoints.codes(table.pools.endpoint_ids.values)
        cc_map = self._countries.codes(table.pools.countries.values)
        if len(self._endpoints) > self._endpoint_cc.size:
            grown = np.full(len(self._endpoints), -1, np.int32)
            grown[: self._endpoint_cc.size] = self._endpoint_cc
            self._endpoint_cc = grown
        if table.num_cases:
            self._endpoint_cc[ep_map[table.e1_id]] = cc_map[table.e1_cc]
            self._endpoint_cc[ep_map[table.e2_id]] = cc_map[table.e2_cc]
        if ep_map.size == 0:
            ep_map = np.zeros(0, np.int32)
        if cc_map.size == 0:
            cc_map = np.zeros(0, np.int32)
        return ep_map, cc_map

    @staticmethod
    def _reduce_round_rows(
        lanes: np.ndarray, relays: np.ndarray, gains: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One round's ``(lane, relay)`` rows: occurrence counts + gain sums.

        The shared ranking kernel does the group-reduce; the CSR comes
        back flattened because round aggregates are stored (and
        snapshotted) as flat row lists.
        """
        keys, indptr, ranked_relays, ranked_counts, gain_sums = rank_lane_entries(
            lanes, relays, gains=gains
        )
        return (
            np.repeat(keys, np.diff(indptr)),
            ranked_relays,
            ranked_counts,
            gain_sums,
        )

    def _round_rows_for(
        self, tier: int, type_code: int, touched: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Retained rounds' rows for a block, round-ascending, optionally
        restricted to a touched-lane subset."""
        lanes, relays, counts, gains = [], [], [], []
        for rid in self._rounds:
            agg = self._rounds[rid].get((tier, type_code))
            if agg is None:
                continue
            lane, relay, count, gain = agg
            if touched is not None:
                keep = np.isin(lane, touched)
                if not keep.any():
                    continue
                lane, relay, count, gain = (
                    lane[keep], relay[keep], count[keep], gain[keep]
                )
            lanes.append(lane)
            relays.append(relay)
            counts.append(count)
            gains.append(gain)
        if not lanes:
            empty64 = np.zeros(0, np.int64)
            empty32 = np.zeros(0, np.int32)
            return empty64, empty32, empty32, np.zeros(0, float)
        return (
            np.concatenate(lanes),
            np.concatenate(relays),
            np.concatenate(counts),
            np.concatenate(gains),
        )

    def _recompute(
        self, tier: int, type_code: int, touched: np.ndarray | None = None
    ) -> None:
        fresh = LaneBlock.from_rows(*self._round_rows_for(tier, type_code, touched))
        if touched is None:
            self._blocks[(tier, type_code)] = fresh
            return
        old = self._blocks.get((tier, type_code))
        if old is None or old.num_lanes == 0:
            self._blocks[(tier, type_code)] = fresh
            return
        self._blocks[(tier, type_code)] = _merge_blocks(old, fresh, touched)

    def recompile(self) -> None:
        """Rebuild every compiled block from the retained rounds."""
        with obs.span("service.directory.recompile"):
            keys = sorted({key for agg in self._rounds.values() for key in agg})
            self._blocks = {}
            self._lookup.clear()
            for tier, type_code in keys:
                self._recompute(tier, type_code)

    # ---------------------------------------------------------------- queries

    def block(self, tier: int, relay_type: RelayType) -> LaneBlock:
        """A tier's compiled lanes for a relay type (empty when unbuilt)."""
        code = RELAY_TYPE_ORDER.index(relay_type)
        return self._blocks.get((tier, code), LaneBlock.empty())

    def lookup_many(
        self,
        src_codes: np.ndarray,
        dst_codes: np.ndarray,
        relay_type: RelayType,
        k: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Resolve queries through the fallback tiers, fully batched.

        ``src_codes`` / ``dst_codes`` are directory endpoint codes (-1 =
        unknown, resolved structurally to the direct tier).  Returns
        ``(relays (n, k) int32, reductions (n, k) float64, tier (n,)
        int8)`` — -1/NaN padded, with :data:`TIER_DIRECT` rows entirely
        padding (keep the direct path).

        Each query is one cell of the relay type's slot index (built on
        first use): one gather finds its answer slot, one
        :func:`~repro.core.oracle.csr_top_k` reads the slot's ranked
        candidates and one more gather its tier.

        Raises:
            EmptyDirectoryError: when no round was ever ingested — there
                is no history to resolve against, distinct from a miss.
            UnknownEndpointError: for codes outside ``[-1, endpoints)``;
                those are caller bugs, not unobserved endpoints.
        """
        if k < 1:
            raise ServiceError(f"k must be >= 1, got {k}")
        side = len(self._endpoint_cc) + 1
        src, dst = validate_query_codes(src_codes, dst_codes, side - 1)
        code = RELAY_TYPE_ORDER.index(relay_type)
        index = self._lookup.get(code)
        if index is None:
            index = self._lookup[code] = _SlotIndex.build(
                self._blocks.get((TIER_PAIR, code), LaneBlock.empty()),
                self._blocks.get((TIER_COUNTRY, code), LaneBlock.empty()),
                self._endpoint_cc,
            )
        slot = index.slots[(src + 1) * side + (dst + 1)]
        relays, reductions = csr_top_k(
            index.indptr, slot, k,
            (index.relays, index.reduction_ms), (-1, np.nan),
        )
        return relays, reductions, index.tiers[slot]

    # ----------------------------------------------------------------- health

    def relay_last_seen(self) -> dict[int, int]:
        """Relay registry idx -> newest round id it improved any lane in."""
        return dict(self._relay_last_seen)

    def stale_relay_mask(self, liveness_rounds: int) -> np.ndarray:
        """Boolean mask over relay ids: True = presumed dead.

        A relay is *stale* when it appeared in no improving entry of the
        newest ``liveness_rounds`` retained rounds — under churn that is
        the serving layer's only liveness signal (lanes only ever contain
        improving relays, so "not seen lately" means "not sampled or not
        improving lately").  The mask is indexed by relay registry id and
        sized to cover every relay the directory ever saw; compiled-lane
        relay ids always fall inside it.
        """
        if liveness_rounds < 1:
            raise ServiceError(
                f"liveness_rounds must be >= 1, got {liveness_rounds}"
            )
        if not self._relay_last_seen:
            return np.zeros(0, bool)
        rounds = list(self._rounds)
        ids = np.fromiter(self._relay_last_seen, np.int64)
        mask = np.zeros(int(ids.max()) + 1, bool)
        if not rounds:
            mask[ids] = True  # everything it knew was evicted
            return mask
        cutoff = rounds[max(len(rounds) - liveness_rounds, 0)]
        seen = np.fromiter(self._relay_last_seen.values(), np.int64)
        mask[ids[seen < cutoff]] = True
        return mask

    # ------------------------------------------------------------- identities

    def endpoint_code(self, endpoint_id: str) -> int:
        """The directory code of an endpoint id (-1 when never observed)."""
        return self._endpoints.lookup(endpoint_id)

    def encode_endpoints(self, endpoint_ids) -> np.ndarray:
        """Directory codes for an endpoint-id sequence (-1 = unknown)."""
        lookup = self._endpoints.lookup
        return np.fromiter((lookup(e) for e in endpoint_ids), np.int64)

    def endpoint_ids(self) -> list[str]:
        """Every endpoint id the directory has observed, in code order."""
        return list(self._endpoints.values)

    def country_of_code(self, endpoint_code: int) -> str | None:
        """Country string of an endpoint code (None when never learned).

        Raises:
            UnknownEndpointError: for codes outside the known range.
        """
        if not 0 <= endpoint_code < self._endpoint_cc.size:
            raise UnknownEndpointError(
                f"endpoint code {endpoint_code} outside the directory's "
                f"known range [0, {self._endpoint_cc.size})"
            )
        cc = int(self._endpoint_cc[endpoint_code])
        return None if cc < 0 else self._countries[cc]

    def country_code(self, country: str) -> int:
        """The directory code of a country string.

        Raises:
            UnknownCountryError: for countries never observed.
        """
        code = self._countries.lookup(country)
        if code < 0:
            raise UnknownCountryError(
                f"country {country!r} not observed by the directory"
            )
        return code

    def countries(self) -> list[str]:
        """Every country the directory has observed, in code order."""
        return list(self._countries.values)

    def endpoint_country_codes(self) -> np.ndarray:
        """``(num_endpoints,) int32`` country code per endpoint code."""
        return self._endpoint_cc.copy()

    def retained_rounds(self) -> list[int]:
        """Round ids currently inside the staleness window, ascending."""
        return list(self._rounds)

    def stats(self) -> dict[str, Any]:
        """Shape summary: pools, retained rounds, lanes per tier and type,
        and the bytes of the slot indexes lookups have built so far."""
        lanes = {
            f"lanes_{TIER_NAMES[tier]}_{relay_type.value}": self._blocks.get(
                (tier, code), LaneBlock.empty()
            ).num_lanes
            for tier in _TIERS
            for code, relay_type in enumerate(RELAY_TYPE_ORDER)
        }
        return {
            "endpoints": len(self._endpoints),
            "countries": len(self._countries),
            "retained_rounds": self.retained_rounds(),
            "max_rounds": self.max_rounds,
            "relays_seen": len(self._relay_last_seen),
            "lookup_index_bytes": sum(i.nbytes for i in self._lookup.values()),
            **lanes,
        }

    # -------------------------------------------------------------- snapshots

    def snapshot_arrays(self) -> dict[str, np.ndarray]:
        """The snapshot as a flat name -> array dict, in write order.

        The base arrays come first (``meta``, identities, relay health,
        per-round lane rows), then every non-empty compiled block as
        ``b_t{tier}_{type}_{keys,indptr,relays,counts,red}``.
        """
        arrays: dict[str, np.ndarray] = {
            "meta": np.asarray(
                [
                    SNAPSHOT_VERSION,
                    -1 if self.max_rounds is None else self.max_rounds,
                ],
                np.int64,
            ),
            "endpoints": np.asarray(self._endpoints.values, dtype=np.str_),
            "countries": np.asarray(self._countries.values, dtype=np.str_),
            "endpoint_cc": self._endpoint_cc,
            "round_ids": np.asarray(list(self._rounds), np.int64),
            "relay_seen_ids": np.asarray(
                sorted(self._relay_last_seen), np.int64
            ),
            "relay_seen_rounds": np.asarray(
                [self._relay_last_seen[r] for r in sorted(self._relay_last_seen)],
                np.int64,
            ),
        }
        for rid in self._rounds:
            for tier, type_code in sorted(self._rounds[rid]):
                lane, relay, count, gain = self._rounds[rid][(tier, type_code)]
                prefix = f"r{rid}_t{tier}_{type_code}"
                arrays[f"{prefix}_lane"] = lane
                arrays[f"{prefix}_relay"] = relay
                arrays[f"{prefix}_count"] = count
                arrays[f"{prefix}_gain"] = gain
        for tier in _TIERS:
            for code in range(len(RELAY_TYPE_ORDER)):
                block = self._blocks.get((tier, code))
                if block is None or block.num_lanes == 0:
                    continue
                prefix = f"b_t{tier}_{code}"
                arrays[f"{prefix}_keys"] = block.keys
                arrays[f"{prefix}_indptr"] = block.indptr
                arrays[f"{prefix}_relays"] = block.relays
                arrays[f"{prefix}_counts"] = block.counts
                arrays[f"{prefix}_red"] = block.reduction_ms
        return arrays

    def save(self, file: str | IO[bytes]) -> None:
        """Write the directory to a ``.npz`` snapshot.

        Deterministic: the same directory state always produces the same
        bytes (arrays are written in a fixed order and ``np.savez`` stamps
        a constant timestamp), so snapshot equality is state equality.
        """
        np.savez(file, **self.snapshot_arrays())

    @classmethod
    def _from_arrays(cls, data) -> RelayDirectory:
        """Rebuild from a snapshot's base arrays and recompile.

        ``data`` is any name -> array mapping :func:`read_snapshot`
        accepted; the block arrays are ignored.
        """
        meta = data["meta"]
        max_rounds = int(meta[1])
        directory = cls(max_rounds=None if max_rounds < 0 else max_rounds)
        directory._endpoints = Interner(np.asarray(data["endpoints"]).tolist())
        directory._countries = Interner(np.asarray(data["countries"]).tolist())
        directory._endpoint_cc = np.asarray(data["endpoint_cc"]).astype(np.int32)
        directory._relay_last_seen = dict(
            zip(
                np.asarray(data["relay_seen_ids"]).tolist(),
                np.asarray(data["relay_seen_rounds"]).tolist(),
            )
        )
        for rid in np.asarray(data["round_ids"]).tolist():
            aggregate = {}
            for tier in _TIERS:
                for type_code in range(NUM_RELAY_TYPES):
                    prefix = f"r{rid}_t{tier}_{type_code}"
                    if f"{prefix}_lane" not in data:
                        continue
                    aggregate[(tier, type_code)] = (
                        np.asarray(data[f"{prefix}_lane"]),
                        np.asarray(data[f"{prefix}_relay"]),
                        np.asarray(data[f"{prefix}_count"]),
                        np.asarray(data[f"{prefix}_gain"]),
                    )
            directory._rounds[rid] = aggregate
        directory.recompile()
        return directory

    @classmethod
    def load(cls, file: str | IO[bytes]) -> RelayDirectory:
        """Rebuild a directory from a :meth:`save` snapshot.

        Raises:
            ServiceError: for any defective snapshot (see
                :func:`read_snapshot`).
        """
        return cls._from_arrays(read_snapshot(file))

    @classmethod
    def segment_view(
        cls,
        *,
        blocks: dict[tuple[int, int], LaneBlock],
        endpoint_cc: np.ndarray,
        endpoints: list[str] | None = None,
        countries: list[str] | None = None,
        round_ids: list[int] | None = None,
        relay_last_seen: dict[int, int] | None = None,
        max_rounds: int | None = None,
    ) -> RelayDirectory:
        """A queryable directory over prebuilt lane blocks.

        Cluster workers serve these: the compiled ``blocks`` are some
        full directory's, the identity arrays are shared with it, and
        lookups behave exactly as the full directory's.  Views carry no
        per-round rows, so they cannot ingest — swaps replace the whole
        view instead (the cluster's zero-downtime path).
        """
        view = cls(max_rounds=max_rounds)
        view._blocks = dict(blocks)
        view._endpoint_cc = np.asarray(endpoint_cc, np.int32)
        if endpoints is not None:
            view._endpoints = Interner(list(endpoints))
        if countries is not None:
            view._countries = Interner(list(countries))
        if relay_last_seen is not None:
            view._relay_last_seen = dict(relay_last_seen)
        # placeholder per-round keys keep retained_rounds()/stale_relay_mask
        # cutoffs correct without shipping the round rows to every worker
        for rid in round_ids or []:
            view._rounds[int(rid)] = {}
        return view

    def block_signature(self) -> str:
        """BLAKE2 digest over every compiled block's arrays.

        Two directories with equal signatures answer every query
        identically; the incremental-vs-full and snapshot tests compare
        these (and the underlying arrays) directly.
        """
        import hashlib

        digest = hashlib.blake2b(digest_size=16)
        for key in sorted(self._blocks):
            block = self._blocks[key]
            digest.update(repr(key).encode())
            for arr in (block.keys, block.indptr, block.relays, block.counts,
                        block.reduction_ms):
                digest.update(np.ascontiguousarray(arr).tobytes())
        return digest.hexdigest()


def read_snapshot(
    file: str | os.PathLike | IO[bytes], *, mmap: bool = False
) -> dict[str, np.ndarray]:
    """Every member of a snapshot, checked: the one snapshot reader.

    With ``mmap`` and a path, members are memory-mapped in place (a
    compressed or object member falls back to an eager read); otherwise
    they are read into memory.

    Raises:
        ServiceError: naming the file when it is missing, unreadable, not
            a zip, truncated, lacks ``meta`` or a base member, or has any
            version but :data:`SNAPSHOT_VERSION`.
    """
    is_path = isinstance(file, (str, os.PathLike))
    name = os.fspath(file) if is_path else getattr(file, "name", "<buffer>")
    try:
        arrays = None
        if mmap and is_path:
            try:
                arrays = mmap_npz(os.fspath(file))
            except ValueError:
                pass  # compressed / exotic member: read it eagerly
        if arrays is None:
            with np.load(file) as data:
                arrays = {member: data[member] for member in data.files}
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise ServiceError(f"snapshot {name} cannot be read: {exc}") from exc
    if "meta" not in arrays:
        raise ServiceError(f"snapshot {name} has no meta member")
    meta = np.asarray(arrays["meta"]).ravel()
    version = int(meta[0]) if meta.size and meta.dtype.kind in "iu" else None
    if version != SNAPSHOT_VERSION:
        raise ServiceError(
            f"snapshot {name} has version {version}, which cannot be read "
            f"(only version {SNAPSHOT_VERSION}); it must be rebuilt from "
            "its campaign or tables and saved again"
        )
    if meta.size != 2:
        raise ServiceError(f"snapshot {name} has a malformed meta member")
    missing = [member for member in _BASE_MEMBERS if member not in arrays]
    if missing:
        raise ServiceError(f"snapshot {name} lacks members {missing}")
    return arrays
